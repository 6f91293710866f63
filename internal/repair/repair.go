// Package repair implements GDR's candidate-update generation (Appendix A of
// the paper): the on-demand UpdateAttributeTuple procedure with its three
// resolution scenarios, the update evaluation function (Eq. 7), and the
// per-cell bookkeeping the consistency manager relies on — prevented value
// lists and changeable flags.
package repair

import (
	"fmt"
	"sync"

	"gdr/internal/cfd"
	"gdr/internal/par"
	"gdr/internal/relation"
	"gdr/internal/strsim"
)

// Feedback is a user (or learner) decision about a suggested update.
type Feedback int

const (
	// Confirm: the suggested value is correct; apply it and stop generating
	// updates for this cell.
	Confirm Feedback = iota
	// Reject: the suggested value is wrong; add it to the prevented list and
	// look for a different suggestion.
	Reject
	// Retain: the cell's current value is already correct; stop generating
	// updates for it.
	Retain
)

func (f Feedback) String() string {
	switch f {
	case Confirm:
		return "confirm"
	case Reject:
		return "reject"
	case Retain:
		return "retain"
	default:
		return fmt.Sprintf("Feedback(%d)", int(f))
	}
}

// Update is a suggested repair r = ⟨t, A, v, s⟩: set attribute Attr of tuple
// Tid to Value; Score is the update evaluation function's certainty in [0,1].
type Update struct {
	Tid   int
	Attr  string
	Value string
	Score float64
}

// Cell returns the cell the update targets.
func (u Update) Cell() CellKey { return CellKey{Tid: u.Tid, Attr: u.Attr} }

func (u Update) String() string {
	return fmt.Sprintf("⟨t%d, %s, %q, %.2f⟩", u.Tid, u.Attr, u.Value, u.Score)
}

// CellKey identifies one database cell.
type CellKey struct {
	Tid  int
	Attr string
}

// cellPos identifies one cell by tuple id and attribute position — the
// integer-keyed form used by the generator's internal maps.
type cellPos struct {
	tid int
	ai  int
}

// simKey keys the similarity memo: attribute position plus the interned ids
// of the current and suggested values. Hashing three integers replaces
// hashing two strings on every candidate evaluation.
type simKey struct {
	ai   int32
	a, b relation.VID
}

// Generator produces candidate updates for dirty cells. All cell mutations
// during a session must go through Generator.Apply so the co-occurrence
// indexes stay current (domain statistics live in the relation layer and
// maintain themselves). Mutations are single-goroutine, but suggestion
// generation is read-only against the instance and may be batched across
// workers (see SuggestAll); the two internal caches it touches — the
// similarity memo and the lazily built co-occurrence indexes — are
// lock-striped and mutex-guarded respectively, so concurrent Suggest calls
// are safe as long as no Apply/Insert runs at the same time.
type Generator struct {
	eng     *cfd.Engine
	db      *relation.DB
	workers int

	prevented map[cellPos]map[relation.VID]bool
	locked    map[cellPos]bool

	// simMemo caches similarity scores; candidate values recur constantly
	// across Suggest calls (rule constants, frequent domain values). It is
	// lock-striped so concurrent batch generation does not serialize on one
	// lock, and integer-keyed so probing it never hashes a string.
	simMemo *par.Cache[simKey, float64]

	// indexes holds the lazily built co-occurrence indexes backing
	// scenario 3, keyed by attribute signature; indexMu guards the map and
	// makes first-use builds safe under concurrent Suggest calls (readers
	// share the lock, so steady-state lookups don't contend).
	indexMu sync.RWMutex
	indexes map[string]*cooccur // gdr:guarded-by indexMu
}

// maxSimMemo bounds the similarity cache.
const maxSimMemo = 1 << 20

func (g *Generator) simCached(ai int, a, b relation.VID) float64 {
	k := simKey{ai: int32(ai), a: a, b: b}
	if s, ok := g.simMemo.Get(k); ok {
		return s
	}
	d := g.db.Dict(ai)
	s := strsim.Similarity(d.Val(a), d.Val(b))
	g.simMemo.Put(k, s)
	return s
}

// Option configures a Generator.
type Option func(*Generator)

// WithWorkers sets the fan-out of batch suggestion generation (SuggestAll
// and SuggestBatch). Values below 2 select the serial path. Results are
// identical at any setting.
func WithWorkers(n int) Option { return func(g *Generator) { g.workers = par.Workers(n) } }

// NewGenerator builds a generator over the engine's database.
func NewGenerator(eng *cfd.Engine, opts ...Option) *Generator {
	g := &Generator{
		eng:       eng,
		db:        eng.DB(),
		workers:   1,
		prevented: make(map[cellPos]map[relation.VID]bool),
		locked:    make(map[cellPos]bool),
		simMemo:   par.NewCache[simKey, float64](maxSimMemo),
		indexes:   make(map[string]*cooccur),
	}
	for _, o := range opts {
		o(g)
	}
	return g
}

// Engine returns the violation engine the generator works against.
func (g *Generator) Engine() *cfd.Engine { return g.eng }

// Apply routes a confirmed cell update through the violation engine and
// keeps the generator's co-occurrence indexes in sync. It returns the tuples
// whose dirty status may have changed.
func (g *Generator) Apply(tid int, attr, value string) []int {
	ai := g.db.Schema.MustIndex(attr)
	old := g.db.VIDAt(tid, ai)
	affected := g.eng.Apply(tid, attr, value)
	if now := g.db.VIDAt(tid, ai); now != old {
		g.updateIndexes(tid, ai, old, now)
	}
	return affected
}

// Insert routes a newly entered tuple through the violation engine and
// keeps the co-occurrence indexes in sync. It returns the new tuple id and
// the affected tuples.
func (g *Generator) Insert(t relation.Tuple) (tid int, affected []int, err error) {
	tid, affected, err = g.eng.Insert(t)
	if err != nil {
		return 0, nil, err
	}
	row := g.db.Row(tid)
	g.indexMu.Lock()
	for _, idx := range g.indexes {
		var kb [relation.KeyBufSize]byte
		idx.add(string(idx.keyOf(kb[:0], func(ai int) relation.VID { return row[ai] })), row[idx.target])
	}
	g.indexMu.Unlock()
	return tid, affected, nil
}

// DomainCount returns how many tuples currently hold value under attr; the
// relation layer maintains the statistic incrementally.
func (g *Generator) DomainCount(attr, value string) int {
	return g.db.ValueCount(attr, value)
}

// Prevent records that value was confirmed wrong for the cell
// (⟨t,B⟩.preventedList of Appendix A).
func (g *Generator) Prevent(tid int, attr, value string) {
	ai := g.db.Schema.MustIndex(attr)
	k := cellPos{tid, ai}
	m := g.prevented[k]
	if m == nil {
		m = make(map[relation.VID]bool)
		g.prevented[k] = m
	}
	m[g.db.Intern(ai, value)] = true
}

// IsPrevented reports whether value was confirmed wrong for the cell.
func (g *Generator) IsPrevented(tid int, attr, value string) bool {
	ai := g.db.Schema.MustIndex(attr)
	v, ok := g.db.LookupVID(ai, value)
	if !ok {
		return false
	}
	return g.prevented[cellPos{tid, ai}][v]
}

// Lock marks the cell as confirmed correct (⟨t,B⟩.Changeable = false): no
// further updates will be suggested for it.
func (g *Generator) Lock(tid int, attr string) {
	g.locked[cellPos{tid, g.db.Schema.MustIndex(attr)}] = true
}

// Locked reports whether the cell is locked.
func (g *Generator) Locked(tid int, attr string) bool {
	return g.locked[cellPos{tid, g.db.Schema.MustIndex(attr)}]
}

// candidate is an internal scored suggestion, value dictionary-encoded.
type candidate struct {
	value relation.VID
	score float64
	// rank breaks score ties deterministically: lower is better.
	rank int
}

// better orders candidates: higher score, then lower rank, then — only on a
// full tie — the lexicographically smaller value string, so the chosen
// suggestion is independent of candidate enumeration order and identical to
// the string-era generator's.
func better(d *relation.Dict, a, b candidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return d.Val(a.value) < d.Val(b.value)
}

// Suggest implements UpdateAttributeTuple(t, B) (Algorithm 1): it finds the
// best update value for cell (tid, attr) across the three scenarios and
// returns it with its Eq. 7 score. ok is false when the cell is locked, the
// tuple violates no rule involving the attribute, or every candidate is
// prevented.
func (g *Generator) Suggest(tid int, attr string) (u Update, ok bool) {
	return g.suggest(tid, attr, g.eng.VioRuleList(tid))
}

func (g *Generator) suggest(tid int, attr string, vio []int) (u Update, ok bool) {
	ai := g.db.Schema.MustIndex(attr)
	if g.locked[cellPos{tid, ai}] {
		return Update{}, false
	}
	cur := g.db.VIDAt(tid, ai)
	dict := g.db.Dict(ai)
	prevented := g.prevented[cellPos{tid, ai}]
	best := candidate{score: -1}
	consider := func(v relation.VID, rank int) {
		if v == cur || prevented[v] {
			return
		}
		c := candidate{value: v, score: g.simCached(ai, cur, v), rank: rank}
		if best.score < 0 || better(dict, c, best) {
			best = c
		}
	}

	lhsOf := vio[:0:0] // violated rules with attr in their LHS
	for _, ri := range vio {
		rule := g.eng.Rules()[ri]
		switch {
		case rule.RHS == attr && rule.Constant():
			// Scenario 1: enforce the constant RHS pattern value.
			consider(g.eng.ConstantRHSVID(ri), 0)
		case rule.RHS == attr:
			// Scenario 2: take the RHS value of a violating partner t′ —
			// but only when the tuple is a plausible culprit. Tuples whose
			// value holds a strict bucket majority are not suspects
			// (minimal-change repair changes the minority side); in an even
			// split, both sides are suggested, as in the paper's t5/t8
			// example.
			if g.eng.InBucketMajority(ri, tid) {
				continue
			}
			var pvb [16]relation.VID
			for _, v := range g.eng.AppendPartnerRHSVIDs(pvb[:0], ri, tid) {
				consider(v, 1)
			}
		default:
			// Candidate LHS repairs are only derived when the tuple is a
			// plausible culprit: for a variable rule, tuples agreeing with
			// their bucket's strict majority are not suspects (the conflict
			// is attributable to the minority side — minimal-change repair).
			if rule.Involves(attr) && !g.eng.InBucketMajority(ri, tid) {
				lhsOf = append(lhsOf, ri)
			}
		}
	}
	if len(lhsOf) > 0 {
		// Scenario 3: semantically related values for an LHS attribute —
		// first constants from the violated rules' tableaux, then the values
		// of attr among the tuples identified by the pattern t[X ∪ A − {B}]
		// (co-occurrence). A candidate is only eligible if it resolves the
		// violation it was derived from (Appendix A.2: the change must make
		// t[X] ⋠ tp[X], or move t into agreeing company).
		for _, ri := range lhsOf {
			rule := g.eng.Rules()[ri]
			if pv, hasPat := g.eng.LHSPatternVID(ri, ai); hasPat && !g.eng.WouldViolateVID(ri, tid, ai, pv) {
				consider(pv, 2)
			}
			others := make([]int, 0, len(rule.LHS))
			for _, a := range rule.Attrs() {
				if a != attr {
					others = append(others, g.db.Schema.MustIndex(a))
				}
			}
			for _, v := range g.coCandidates(tid, ai, others) {
				if !g.eng.WouldViolateVID(ri, tid, ai, v) {
					consider(v, 3)
				}
			}
		}
	}
	if best.score < 0 {
		return Update{}, false
	}
	return Update{Tid: tid, Attr: attr, Value: dict.Val(best.value), Score: best.score}, true
}

// SuggestTuple runs Suggest for every attribute of a tuple and returns the
// resulting updates; the initial pass of Procedure 1 step 1 calls this for
// every dirty tuple. The tuple's violated-rule list is computed once and
// shared across attributes.
func (g *Generator) SuggestTuple(tid int) []Update {
	vio := g.eng.VioRuleList(tid)
	if len(vio) == 0 {
		return nil
	}
	var out []Update
	for _, attr := range g.db.Schema.Attrs {
		if u, ok := g.suggest(tid, attr, vio); ok {
			out = append(out, u)
		}
	}
	return out
}

// SuggestAll generates the initial PossibleUpdates list over all dirty
// tuples, fanning the per-tuple work out over the generator's configured
// workers (WithWorkers); the result is identical at any worker count.
func (g *Generator) SuggestAll() []Update {
	return g.SuggestBatch(g.eng.Dirty())
}

// SuggestBatch runs SuggestTuple for every given tuple concurrently and
// returns the concatenated suggestions in input order — byte-identical to
// calling SuggestTuple serially. Suggestion generation only reads the
// instance, so the batch must not overlap with Apply/Insert calls.
func (g *Generator) SuggestBatch(tids []int) []Update {
	if g.workers <= 1 || len(tids) < 2 {
		var out []Update
		for _, tid := range tids {
			out = append(out, g.SuggestTuple(tid)...)
		}
		return out
	}
	per := make([][]Update, len(tids))
	par.ForEach(g.workers, len(tids), func(i int) error {
		per[i] = g.SuggestTuple(tids[i])
		return nil
	})
	var out []Update
	for _, ups := range per {
		out = append(out, ups...)
	}
	return out
}
