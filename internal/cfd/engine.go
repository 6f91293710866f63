package cfd

import (
	"fmt"
	"slices"
	"sort"

	"gdr/internal/relation"
)

// Pattern sentinels. Real VIDs are dense indexes into an attribute
// dictionary, so values this large can never collide with one.
const (
	// wildVID marks a wildcard position in a pre-resolved pattern.
	wildVID = ^relation.VID(0)
	// FreshVID stands for a hypothetical value absent from the attribute's
	// dictionary: it matches no pattern constant and equals no stored value.
	// WhatIfVID, AppendWhatIfVID and WouldViolateVID accept it so callers
	// can score updates whose value has never been seen without interning
	// (interning would mutate the dictionary, which is not allowed during
	// read-only scoring).
	FreshVID = ^relation.VID(0) - 1
)

// Engine maintains, incrementally under cell updates, the violation state of
// a database instance with respect to a set Σ of normal-form CFDs:
//
//   - vio(D,{φ}) of Definition 1 (constant rules: one per violating tuple;
//     variable rules: pairwise counting as in Cong et al. [7]),
//   - |D ⊨ φ|, the number of tuples satisfying φ,
//   - |D(φ)|, the number of tuples in the rule's context (matching tp[X]),
//   - the DirtyTuples set {t : ∃φ, t ⊭ φ}, and
//   - per-rule version counters, which the session's per-attribute
//     staleness check reads to decide which ranked groups to re-score, and
//   - a context index, built once from the rules: every rule is filed under
//     the VID of its first constant LHS position, so a row reaches only the
//     rules whose context can hold it (see candidates). Scoring, Apply,
//     Insert, the dirty checks and Rebuild all visit those rules alone.
//
// All state is dictionary-encoded: pattern constants are resolved to VIDs at
// construction, tuples are matched by comparing uint32s, and variable-rule
// buckets are keyed by the fixed-width byte encoding of the tuple's LHS ids.
//
// All database mutations during a repair session must go through
// Engine.Apply so the indexes stay consistent.
type Engine struct {
	db     *relation.DB
	rules  []*CFD
	states []*ruleState
	byAttr [][]int // attribute position -> indexes into states
	byID   map[string]int
	dirty  map[int]struct{}
	ctx    ctxIndex
}

type ruleState struct {
	rule    *CFD
	isConst bool // rule.Constant(), cached: the tableau is a map probe
	// selOnly: the LHS carries no constant besides the context index's
	// selector, so every candidate the index offers for a row holds it.
	selOnly bool
	lhsIdx  []int
	lhsPat  []relation.VID // wildVID for wildcard positions
	rhsIdx  int
	rhsPat  relation.VID // only meaningful for constant rules
	version uint64

	// ctx is |D(φ)|: the number of tuples matching tp[X].
	ctx int

	// Constant-rule state.
	constViol map[int]struct{}

	// Variable-rule state.
	buckets    map[string]*bucket
	vioTotal   int // Σ_t vio(t,{φ})
	violTuples int // number of tuples violating φ
}

// bucket groups, for a variable rule, the context tuples sharing one LHS
// value combination. Within a bucket, every tuple violates the rule iff the
// bucket holds at least two distinct RHS values.
type bucket struct {
	total int
	sumsq int // Σ_v count(v)^2, so bucket vio = total^2 − sumsq
	byVal map[relation.VID]int
	tids  map[int]struct{}
}

func (b *bucket) vio() int { return b.total*b.total - b.sumsq }

func (b *bucket) violTuples() int {
	if len(b.byVal) >= 2 {
		return b.total
	}
	return 0
}

// NewEngine validates the rules against the database schema, interns every
// pattern constant into the instance's dictionaries, and builds the
// violation indexes with a full scan.
func NewEngine(db *relation.DB, rules []*CFD) (*Engine, error) {
	e := &Engine{db: db, rules: rules, dirty: make(map[int]struct{}), byID: make(map[string]int, len(rules))}
	e.byAttr = make([][]int, db.Schema.Arity())
	for si, r := range rules {
		if err := r.Validate(db.Schema); err != nil {
			return nil, err
		}
		if _, dup := e.byID[r.ID]; dup {
			return nil, fmt.Errorf("cfd: duplicate rule id %q", r.ID)
		}
		e.byID[r.ID] = si
		st := &ruleState{rule: r, isConst: r.Constant(), rhsIdx: db.Schema.MustIndex(r.RHS)}
		consts := 0
		for _, a := range r.LHS {
			ai := db.Schema.MustIndex(a)
			st.lhsIdx = append(st.lhsIdx, ai)
			if p := r.TP[a]; p == Wildcard {
				st.lhsPat = append(st.lhsPat, wildVID)
			} else {
				st.lhsPat = append(st.lhsPat, db.Intern(ai, p))
				consts++
			}
			e.byAttr[ai] = append(e.byAttr[ai], si)
		}
		st.selOnly = consts <= 1
		e.byAttr[st.rhsIdx] = append(e.byAttr[st.rhsIdx], si)
		if r.Constant() {
			st.rhsPat = db.Intern(st.rhsIdx, r.TP[r.RHS])
			st.constViol = make(map[int]struct{})
		} else {
			st.buckets = make(map[string]*bucket)
		}
		e.states = append(e.states, st)
	}
	e.ctx = newCtxIndex(e.states, e.byAttr)
	e.Rebuild()
	return e, nil
}

// DB returns the instance the engine watches.
func (e *Engine) DB() *relation.DB { return e.db }

// Rules returns the rule set Σ in engine order.
func (e *Engine) Rules() []*CFD { return e.rules }

// RuleIndex returns the engine index of the rule with the given id, or -1.
func (e *Engine) RuleIndex(id string) int {
	if si, ok := e.byID[id]; ok {
		return si
	}
	return -1
}

// ConstantRHSVID returns the interned id of a constant rule's RHS pattern
// value; the update generator uses it for scenario-1 candidates. It must not
// be called for variable rules.
func (e *Engine) ConstantRHSVID(ri int) relation.VID { return e.states[ri].rhsPat }

// LHSPatternVID returns the interned id of rule ri's pattern constant for
// attribute position ai, and whether that position carries a constant (false
// for wildcards and attributes outside the rule's LHS).
func (e *Engine) LHSPatternVID(ri, ai int) (relation.VID, bool) {
	st := e.states[ri]
	for i, li := range st.lhsIdx {
		if li == ai && st.lhsPat[i] != wildVID {
			return st.lhsPat[i], true
		}
	}
	return 0, false
}

// Rebuild recomputes all indexes from scratch. It is used at construction
// and by tests cross-checking incremental maintenance.
func (e *Engine) Rebuild() {
	e.dirty = make(map[int]struct{})
	for _, st := range e.states {
		st.version++
		st.ctx = 0
		if st.isConst {
			st.constViol = make(map[int]struct{})
		} else {
			st.buckets = make(map[string]*bucket)
			st.vioTotal = 0
			st.violTuples = 0
		}
	}
	var cb [candBufLen]int32
	for tid := 0; tid < e.db.N(); tid++ {
		for _, si := range e.candidates(cb[:0], e.db.Row(tid), -1, 0) {
			e.addTuple(e.states[si], tid)
		}
	}
	for tid := 0; tid < e.db.N(); tid++ {
		if e.violatesAny(tid) {
			e.dirty[tid] = struct{}{}
		}
	}
}

// matchLHS tests t[X] ≼ tp[X] by comparing interned ids.
func (st *ruleState) matchLHS(row []relation.VID) bool {
	for i, ai := range st.lhsIdx {
		if p := st.lhsPat[i]; p != wildVID && row[ai] != p {
			return false
		}
	}
	return true
}

// matchLHSAt is matchLHS for the row with position ai hypothetically set to v.
func (st *ruleState) matchLHSAt(row []relation.VID, ai int, v relation.VID) bool {
	for i, li := range st.lhsIdx {
		val := row[li]
		if li == ai {
			val = v
		}
		if p := st.lhsPat[i]; p != wildVID && val != p {
			return false
		}
	}
	return true
}

// key appends the bucket key for a variable rule — the fixed-width byte
// encoding of the row's LHS ids — to buf. Callers pass a stack-backed scratch
// buffer and probe buckets with string(key), which the compiler keeps
// allocation-free for map lookups.
func (st *ruleState) key(buf []byte, row []relation.VID) []byte {
	for _, ai := range st.lhsIdx {
		buf = relation.AppendVID(buf, row[ai])
	}
	return buf
}

// bucketOf returns the variable-rule bucket the row belongs to, or nil.
func (st *ruleState) bucketOf(row []relation.VID) *bucket {
	var kb [relation.KeyBufSize]byte
	return st.buckets[string(st.key(kb[:0], row))]
}

func (e *Engine) addTuple(st *ruleState, tid int) {
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return
	}
	st.ctx++
	if st.isConst {
		if row[st.rhsIdx] != st.rhsPat {
			st.constViol[tid] = struct{}{}
		}
		return
	}
	var kb [relation.KeyBufSize]byte
	k := st.key(kb[:0], row)
	b := st.buckets[string(k)]
	if b == nil {
		b = &bucket{byVal: make(map[relation.VID]int), tids: make(map[int]struct{})}
		st.buckets[string(k)] = b
	}
	st.vioTotal -= b.vio()
	st.violTuples -= b.violTuples()
	v := row[st.rhsIdx]
	c := b.byVal[v]
	b.sumsq += 2*c + 1
	b.byVal[v] = c + 1
	b.total++
	b.tids[tid] = struct{}{}
	st.vioTotal += b.vio()
	st.violTuples += b.violTuples()
}

func (e *Engine) removeTuple(st *ruleState, tid int) {
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return
	}
	st.ctx--
	if st.isConst {
		delete(st.constViol, tid)
		return
	}
	var kb [relation.KeyBufSize]byte
	k := st.key(kb[:0], row)
	b := st.buckets[string(k)]
	if b == nil {
		return
	}
	st.vioTotal -= b.vio()
	st.violTuples -= b.violTuples()
	v := row[st.rhsIdx]
	c := b.byVal[v]
	b.sumsq += -2*c + 1
	if c == 1 {
		delete(b.byVal, v)
	} else {
		b.byVal[v] = c - 1
	}
	b.total--
	delete(b.tids, tid)
	if b.total == 0 {
		delete(st.buckets, string(k))
	} else {
		st.vioTotal += b.vio()
		st.violTuples += b.violTuples()
	}
}

// Apply sets cell (tid, attr) to value and incrementally maintains all rule
// indexes and the dirty set. It returns the ids of every tuple whose dirty
// status changed, always including tid, which the consistency manager uses
// to revisit pending updates.
//
// Co-bucket members of a variable rule violate it iff their bucket holds two
// or more distinct RHS values, so their status can only change when a bucket
// crosses that uniform↔mixed boundary; Apply re-evaluates members only on
// such transitions. Only the rules whose context can hold the tuple before
// or after the update are touched (the context index's candidates); every
// rule involving attr still gets its version bumped, since the session's
// attribute staleness reads those counters.
func (e *Engine) Apply(tid int, attr, value string) []int {
	ai := e.db.Schema.MustIndex(attr)
	return e.ApplyVID(tid, ai, e.db.Intern(ai, value))
}

// ApplyVID is Apply for an already-interned value id.
func (e *Engine) ApplyVID(tid, ai int, v relation.VID) []int {
	row := e.db.Row(tid)
	if row[ai] == v {
		return []int{tid}
	}
	for _, si := range e.byAttr[ai] {
		e.states[si].version++
	}
	// One candidate list covers both sides of the update: the row is
	// updated in place, and every rule outside the list keeps its state.
	var cb [candBufLen]int32
	cands := e.candidates(cb[:0], row, ai, v)
	recheck := map[int]struct{}{tid: {}}
	type watch struct {
		st    *ruleState
		key   string
		mixed bool
	}
	var watches []watch
	note := func(st *ruleState, key string) {
		if b := st.buckets[key]; b != nil {
			watches = append(watches, watch{st, key, len(b.byVal) >= 2})
		} else {
			watches = append(watches, watch{st, key, false})
		}
	}
	var kb [relation.KeyBufSize]byte
	for _, si := range cands {
		if st := e.states[si]; !st.isConst && st.matchLHS(row) {
			note(st, string(st.key(kb[:0], row)))
		}
	}
	for _, si := range cands {
		e.removeTuple(e.states[si], tid)
	}
	e.db.SetVIDAt(tid, ai, v)
	// Record the target buckets' mixedness before re-inserting the tuple so
	// a uniform→mixed transition caused by the insertion is visible below.
	for _, si := range cands {
		if st := e.states[si]; !st.isConst && st.matchLHS(row) {
			note(st, string(st.key(kb[:0], row)))
		}
	}
	for _, si := range cands {
		e.addTuple(e.states[si], tid)
	}
	for _, w := range watches {
		b := w.st.buckets[w.key]
		mixedNow := b != nil && len(b.byVal) >= 2
		if mixedNow == w.mixed {
			continue
		}
		if b != nil {
			for m := range b.tids {
				recheck[m] = struct{}{}
			}
		}
	}
	var out []int
	for m := range recheck {
		wasDirty := false
		if _, ok := e.dirty[m]; ok {
			wasDirty = true
		}
		isDirty := e.violatesAny(m)
		if isDirty {
			e.dirty[m] = struct{}{}
		} else {
			delete(e.dirty, m)
		}
		if isDirty != wasDirty || m == tid {
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

// Insert appends a new tuple to the database and indexes it, supporting the
// paper's online data-entry monitoring mode (Section 3): GDR watches newly
// added tuples and immediately derives suggestions for them. It returns the
// new tuple's id and the ids of all tuples whose dirty status changed
// (including the new tuple when it is dirty).
func (e *Engine) Insert(t relation.Tuple) (tid int, affected []int, err error) {
	tid, err = e.db.Insert(t)
	if err != nil {
		return 0, nil, err
	}
	recheck := map[int]struct{}{tid: {}}
	row := e.db.Row(tid)
	type watch struct {
		st    *ruleState
		key   string
		mixed bool
	}
	var watches []watch
	for _, st := range e.states {
		st.version++
	}
	var cb [candBufLen]int32
	cands := e.candidates(cb[:0], row, -1, 0)
	var kb [relation.KeyBufSize]byte
	for _, si := range cands {
		st := e.states[si]
		if st.isConst || !st.matchLHS(row) {
			continue
		}
		key := string(st.key(kb[:0], row))
		mixed := false
		if b := st.buckets[key]; b != nil {
			mixed = len(b.byVal) >= 2
		}
		watches = append(watches, watch{st, key, mixed})
	}
	for _, si := range cands {
		e.addTuple(e.states[si], tid)
	}
	for _, w := range watches {
		b := w.st.buckets[w.key]
		if b == nil || (len(b.byVal) >= 2) == w.mixed {
			continue
		}
		for m := range b.tids {
			recheck[m] = struct{}{}
		}
	}
	for m := range recheck {
		_, wasDirty := e.dirty[m]
		isDirty := e.violatesAny(m)
		if isDirty {
			e.dirty[m] = struct{}{}
		} else {
			delete(e.dirty, m)
		}
		if isDirty != wasDirty || m == tid {
			affected = append(affected, m)
		}
	}
	sort.Ints(affected)
	return tid, affected, nil
}

// violatesAny reports whether tuple tid violates at least one rule. A rule
// can only be violated by a tuple its context holds, so the candidates
// suffice.
func (e *Engine) violatesAny(tid int) bool {
	var cb [candBufLen]int32
	for _, si := range e.candidates(cb[:0], e.db.Row(tid), -1, 0) {
		if e.violates(e.states[si], tid) {
			return true
		}
	}
	return false
}

func (e *Engine) violates(st *ruleState, tid int) bool {
	if st.isConst {
		_, ok := st.constViol[tid]
		return ok
	}
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return false
	}
	b := st.bucketOf(row)
	return b != nil && len(b.byVal) >= 2
}

// Violates reports whether tuple tid violates rule ri (engine index).
func (e *Engine) Violates(ri, tid int) bool { return e.violates(e.states[ri], tid) }

// VioRuleList returns the engine indexes of the rules tuple tid violates —
// the t.vioRuleList of Appendix A.
func (e *Engine) VioRuleList(tid int) []int {
	var out []int
	var cb [candBufLen]int32
	for _, si := range e.candidates(cb[:0], e.db.Row(tid), -1, 0) {
		if e.violates(e.states[si], tid) {
			out = append(out, int(si))
		}
	}
	return out
}

// TupleVio returns vio(t,{φ}) per Definition 1: 1 for a violated constant
// rule; for a variable rule, the number of tuples violating φ together with t.
func (e *Engine) TupleVio(ri, tid int) int {
	st := e.states[ri]
	if st.isConst {
		if _, ok := st.constViol[tid]; ok {
			return 1
		}
		return 0
	}
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return 0
	}
	b := st.bucketOf(row)
	if b == nil {
		return 0
	}
	return b.total - b.byVal[row[st.rhsIdx]]
}

// Vio returns vio(D,{φ}) for rule ri.
func (e *Engine) Vio(ri int) int {
	st := e.states[ri]
	if st.isConst {
		return len(st.constViol)
	}
	return st.vioTotal
}

// VioTotal returns vio(D,Σ), the total violations across all rules.
func (e *Engine) VioTotal() int {
	total := 0
	for ri := range e.states {
		total += e.Vio(ri)
	}
	return total
}

// Sat returns |D ⊨ φ| for rule ri: the number of *context* tuples satisfying
// the rule. Tuples outside the context are not counted — this matches the
// paper's Section 4.1 worked example, where fixing one of four violating
// tuples yields a denominator |D^r ⊨ φ| of 1, not N−3.
func (e *Engine) Sat(ri int) int {
	st := e.states[ri]
	if st.isConst {
		return st.ctx - len(st.constViol)
	}
	return st.ctx - st.violTuples
}

// Context returns |D(φ)|, the number of tuples matching the rule's LHS
// pattern; the paper uses it for the rule weights wi = |D(φi)|/|D|.
func (e *Engine) Context(ri int) int { return e.states[ri].ctx }

// Version returns a counter that changes whenever rule ri's state changes;
// the session compares it across rankings to find stale groups.
func (e *Engine) Version(ri int) uint64 { return e.states[ri].version }

// RulesInvolving returns the engine indexes of rules mentioning attr.
func (e *Engine) RulesInvolving(attr string) []int {
	ai, ok := e.db.Schema.Index(attr)
	if !ok {
		return nil
	}
	return e.byAttr[ai]
}

// RulesInvolvingAt returns the engine indexes of rules mentioning the
// attribute at position ai.
func (e *Engine) RulesInvolvingAt(ai int) []int { return e.byAttr[ai] }

// IsDirty reports whether tuple tid currently violates any rule.
func (e *Engine) IsDirty(tid int) bool {
	_, ok := e.dirty[tid]
	return ok
}

// DirtyCount returns |DirtyTuples|.
func (e *Engine) DirtyCount() int { return len(e.dirty) }

// Dirty returns the sorted DirtyTuples list.
func (e *Engine) Dirty() []int {
	out := make([]int, 0, len(e.dirty))
	for tid := range e.dirty {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// ViolatingPartners returns, for a variable rule ri, the ids of the tuples
// that violate the rule together with tid (same bucket, different RHS value).
// It returns nil for constant rules or non-violating tuples. The update
// generator uses it for scenario 2 (take the value of a partner t′).
func (e *Engine) ViolatingPartners(ri, tid int) []int {
	st := e.states[ri]
	if st.isConst {
		return nil
	}
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return nil
	}
	b := st.bucketOf(row)
	if b == nil || len(b.byVal) < 2 {
		return nil
	}
	mine := row[st.rhsIdx]
	var out []int
	for m := range b.tids {
		if e.db.VIDAt(m, st.rhsIdx) != mine {
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

// AppendPartnerRHSVIDs appends, for a variable rule ri, the distinct RHS
// value ids held by tid's violating partners (same bucket, different RHS
// value) to dst and returns it. It is the value-level counterpart of
// ViolatingPartners for scenario 2 of the update generator, which needs the
// candidate values, not the partner tuples: reading the bucket's value
// histogram is O(distinct values) instead of O(bucket size · log) for
// materializing and sorting the partner tuple list. The appended values are
// sorted, so the result is independent of map iteration order.
func (e *Engine) AppendPartnerRHSVIDs(dst []relation.VID, ri, tid int) []relation.VID {
	st := e.states[ri]
	if st.isConst {
		return dst
	}
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return dst
	}
	b := st.bucketOf(row)
	if b == nil || len(b.byVal) < 2 {
		return dst
	}
	mine := row[st.rhsIdx]
	start := len(dst)
	for v := range b.byVal {
		if v != mine {
			dst = append(dst, v)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// BucketMembers returns the ids of all context tuples agreeing with tid on
// the rule's LHS (including tid itself), for variable rule ri.
func (e *Engine) BucketMembers(ri, tid int) []int {
	st := e.states[ri]
	if st.isConst {
		return nil
	}
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return nil
	}
	b := st.bucketOf(row)
	if b == nil {
		return nil
	}
	out := make([]int, 0, len(b.tids))
	for m := range b.tids {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// InBucketMajority reports, for a variable rule ri, whether tuple tid's RHS
// value is the strict majority in its bucket. Minimal-change repair
// semantics (refs [2,7] of the paper) attribute a variable-CFD conflict to
// the minority side: majority members are not suspects, so the update
// generator does not derive LHS repairs for them. Constant rules always
// return false (single-tuple violations are genuinely suspect).
func (e *Engine) InBucketMajority(ri, tid int) bool {
	st := e.states[ri]
	if st.isConst {
		return false
	}
	row := e.db.Row(tid)
	if !st.matchLHS(row) {
		return false
	}
	b := st.bucketOf(row)
	if b == nil {
		return false
	}
	return 2*b.byVal[row[st.rhsIdx]] > b.total
}

// lookupVID resolves a hypothetical value to an id without interning;
// unknown values become FreshVID (they match nothing and equal nothing).
func (e *Engine) lookupVID(ai int, value string) relation.VID {
	if v, ok := e.db.LookupVID(ai, value); ok {
		return v
	}
	return FreshVID
}

// WouldViolate reports whether tuple tid would still violate rule ri after
// hypothetically setting attr to value. The update generator uses it to keep
// only LHS repair candidates that actually resolve the violation they were
// derived from (Appendix A.2: an LHS change resolves φ by making
// t[X] ⋠ tp[X], or by moving t to agreeing company for variable rules).
func (e *Engine) WouldViolate(ri, tid int, attr, value string) bool {
	ai := e.db.Schema.MustIndex(attr)
	return e.WouldViolateVID(ri, tid, ai, e.lookupVID(ai, value))
}

// WouldViolateVID is WouldViolate for an id-resolved value (FreshVID for
// values absent from the dictionary). It performs no allocation and no
// string comparison.
func (e *Engine) WouldViolateVID(ri, tid, ai int, v relation.VID) bool {
	st := e.states[ri]
	row := e.db.Row(tid)
	get := func(k int) relation.VID {
		if k == ai {
			return v
		}
		return row[k]
	}
	if !st.matchLHSAt(row, ai, v) {
		return false // out of context: vacuously satisfied
	}
	rhs := get(st.rhsIdx)
	if st.isConst {
		return rhs != st.rhsPat
	}
	var kb [relation.KeyBufSize]byte
	key := kb[:0]
	for _, li := range st.lhsIdx {
		key = relation.AppendVID(key, get(li))
	}
	b := st.buckets[string(key)]
	if b == nil {
		return false
	}
	// Exclude tid's own current contribution when it already sits in that
	// bucket (possible when only the RHS or a non-key attribute changed).
	var ob [relation.KeyBufSize]byte
	sameBucket := st.matchLHS(row) && string(st.key(ob[:0], row)) == string(key)
	for val, c := range b.byVal {
		if val == rhs {
			continue
		}
		if sameBucket && val == row[st.rhsIdx] && c == 1 {
			continue
		}
		if c > 0 {
			return true
		}
	}
	return false
}

// RuleDelta is the hypothetical post-update state of one rule, produced by
// WhatIf. Vio and Sat are vio(D^r,{φ}) and |D^r ⊨ φ| for the database D^r
// that would result from applying the update.
type RuleDelta struct {
	Rule int // engine rule index
	Vio  int
	Sat  int
}

// WhatIf computes, without mutating any state, the violation and
// satisfaction counts each affected rule would have after setting cell
// (tid, attr) to value. Rules not mentioning attr are unaffected and
// omitted. This powers the Eq. 6 benefit estimation: the numerator
// vio(D,{φi}) − vio(D^rj,{φi}) and the denominator |D^rj ⊨ φi|.
func (e *Engine) WhatIf(tid int, attr, value string) []RuleDelta {
	ai := e.db.Schema.MustIndex(attr)
	return e.WhatIfVID(tid, ai, e.lookupVID(ai, value))
}

// WhatIfVID is WhatIf for an id-resolved value (FreshVID for values absent
// from the dictionary). It is safe for concurrent use with other read-only
// engine calls; all scratch state lives on the stack.
func (e *Engine) WhatIfVID(tid, ai int, v relation.VID) []RuleDelta {
	old := e.db.VIDAt(tid, ai)
	out := make([]RuleDelta, 0, len(e.byAttr[ai]))
	for _, si := range e.byAttr[ai] {
		st := e.states[si]
		if old == v {
			out = append(out, RuleDelta{Rule: si, Vio: e.Vio(si), Sat: e.Sat(si)})
			continue
		}
		if st.isConst {
			out = append(out, e.whatIfConstant(si, st, tid, ai, v))
		} else {
			out = append(out, e.whatIfVariable(si, st, tid, ai, v))
		}
	}
	return out
}

// AppendWhatIfVID appends to dst, in engine order, the WhatIfVID deltas of
// the rules whose context holds tuple tid before or after the hypothetical
// update, and returns the extended slice. Every other rule involving the
// attribute keeps its current (Vio, Sat), since the tuple neither enters nor
// leaves its context: the context index never offers it, and the few
// candidates it does offer are confirmed with a few VID compares where
// their LHS has constants beyond the index's selector. A value equal to
// the cell's current one yields no deltas. It allocates nothing
// while dst has room and, like WhatIfVID, is safe for concurrent use with
// other read-only engine calls.
func (e *Engine) AppendWhatIfVID(dst []RuleDelta, tid, ai int, v relation.VID) []RuleDelta {
	row := e.db.Row(tid)
	if row[ai] == v {
		return dst
	}
	var cb [candBufLen]int32
	for _, si := range e.candidates(cb[:0], row, ai, v) {
		st := e.states[si]
		switch {
		// A rule with no constant besides its selector was offered because
		// its selector matches the row before or after: no need to check.
		case !st.selOnly && !st.matchLHS(row) && !st.matchLHSAt(row, ai, v):
		case st.isConst:
			dst = append(dst, e.whatIfConstant(int(si), st, tid, ai, v))
		default:
			dst = append(dst, e.whatIfVariable(int(si), st, tid, ai, v))
		}
	}
	return dst
}

func (e *Engine) whatIfConstant(si int, st *ruleState, tid, ai int, v relation.VID) RuleDelta {
	row := e.db.Row(tid)
	_, violBefore := st.constViol[tid]
	matchBefore := st.matchLHS(row)
	matchAfter := st.matchLHSAt(row, ai, v)
	rhsAfter := row[st.rhsIdx]
	if st.rhsIdx == ai {
		rhsAfter = v
	}
	violAfter := matchAfter && rhsAfter != st.rhsPat
	vioAfterTotal := len(st.constViol) + b2i(violAfter) - b2i(violBefore)
	ctxAfter := st.ctx + b2i(matchAfter) - b2i(matchBefore)
	return RuleDelta{Rule: si, Vio: vioAfterTotal, Sat: ctxAfter - vioAfterTotal}
}

func (e *Engine) whatIfVariable(si int, st *ruleState, tid, ai int, v relation.VID) RuleDelta {
	row := e.db.Row(tid)
	vio := st.vioTotal
	violT := st.violTuples

	// Phase 1: hypothetically remove tid from its current bucket.
	oldInCtx := st.matchLHS(row)
	var okb [relation.KeyBufSize]byte
	var oldKey []byte
	// Stats of the old bucket after removal, needed if the new bucket is the
	// same one.
	var oldAfter struct {
		present      bool
		total, sumsq int
		distinct     int
		cntByVal     map[relation.VID]int
	}
	if oldInCtx {
		oldKey = st.key(okb[:0], row)
		b := st.buckets[string(oldKey)]
		val := row[st.rhsIdx]
		c := b.byVal[val]
		vio -= b.vio()
		violT -= b.violTuples()
		total := b.total - 1
		sumsq := b.sumsq - 2*c + 1
		distinct := len(b.byVal)
		if c == 1 {
			distinct--
		}
		if total > 0 {
			vio += total*total - sumsq
			if distinct >= 2 {
				violT += total
			}
		}
		oldAfter.present = total > 0
		oldAfter.total, oldAfter.sumsq, oldAfter.distinct = total, sumsq, distinct
		oldAfter.cntByVal = b.byVal
	}

	// Phase 2: hypothetically add tid with its new values.
	var nkb [relation.KeyBufSize]byte
	newKey := nkb[:0]
	inCtxAfter := true
	for i, li := range st.lhsIdx {
		val := row[li]
		if li == ai {
			val = v
		}
		newKey = relation.AppendVID(newKey, val)
		if p := st.lhsPat[i]; p != wildVID && val != p {
			inCtxAfter = false
		}
	}
	if inCtxAfter {
		rhsAfter := row[st.rhsIdx]
		if st.rhsIdx == ai {
			rhsAfter = v
		}
		var total, sumsq, distinct, c int
		if oldInCtx && string(newKey) == string(oldKey) {
			// Only possible when the edited attribute is the RHS (an LHS
			// edit always changes the key), so rhsAfter differs from the
			// value removed in phase 1 and its count is unaffected.
			total, sumsq, distinct = oldAfter.total, oldAfter.sumsq, oldAfter.distinct
			c = oldAfter.cntByVal[rhsAfter]
			if total > 0 {
				vio -= total*total - sumsq
				if distinct >= 2 {
					violT -= total
				}
			}
		} else if b := st.buckets[string(newKey)]; b != nil {
			total, sumsq, distinct = b.total, b.sumsq, len(b.byVal)
			c = b.byVal[rhsAfter]
			vio -= b.vio()
			violT -= b.violTuples()
		}
		total++
		sumsq += 2*c + 1
		if c == 0 {
			distinct++
		}
		vio += total*total - sumsq
		if distinct >= 2 {
			violT += total
		}
	}
	ctxAfter := st.ctx - b2i(oldInCtx) + b2i(inCtxAfter)
	return RuleDelta{Rule: si, Vio: vio, Sat: ctxAfter - violT}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
