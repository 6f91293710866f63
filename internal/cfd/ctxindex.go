package cfd

import (
	"slices"

	"gdr/internal/relation"
)

// candBufLen sizes the stack buffers callers hand to Engine.candidates. A
// row on hospital draws at most a handful of candidates; longer lists spill
// to the heap, still correct. The buffer is zeroed on every call, so it is
// kept small.
const candBufLen = 16

// ctxIndex files every rule by its selector, the first constant position of
// its LHS (in the rule's own LHS order) and that constant's VID. A row can
// only be in a rule's context if it carries the selector constant, so the
// rules filed under the row's own values are a superset of the rules whose
// context holds it; rules whose LHS is all wildcards have no selector and
// sit on open lists, which every row reaches. Which constant serves as the
// selector does not matter for exactness — a context row matches them all —
// and the first needs no data statistics, so the index depends on the
// rules alone and is never maintained under updates.
//
// The index holds one scope over every rule and one per attribute over
// the rules involving it, so a lookup never filters.
type ctxIndex struct {
	all    ctxScope
	byAttr []ctxScope
}

// ctxScope indexes one set of rules. The layout is compact: one flat rule
// list grouped by (position, VID), ascending rule index within a group, and
// per filed position an int32 offset table over the VID range its
// constants span. Constants absent from the data were interned after it
// and sit high, but a table costs four bytes per VID of one attribute's
// dictionary at most.
type ctxScope struct {
	pos   []ctxPos // filed positions, ascending
	rules []int32
	open  []int32 // the selector-less rules, ascending
}

// ctxPos is one filed attribute position: the rules whose selector constant
// is base+k are rules[offs[k]:offs[k+1]].
type ctxPos struct {
	ai   int
	base relation.VID
	offs []int32
}

// lookup returns the rules filed under VID v at position p. VIDs outside
// the constants' range — including values interned after the engine was
// built and FreshVID — carry no rules.
func (sc *ctxScope) lookup(p *ctxPos, v relation.VID) []int32 {
	k := v - p.base // wraps above the range when v < base
	if uint(k) >= uint(len(p.offs)-1) {
		return nil
	}
	return sc.rules[p.offs[k]:p.offs[k+1]]
}

// selector returns the LHS slot of the rule's first constant, or -1 when
// its LHS is all wildcards.
func (st *ruleState) selector() int {
	for i, p := range st.lhsPat {
		if p != wildVID {
			return i
		}
	}
	return -1
}

func newCtxIndex(states []*ruleState, byAttr [][]int) ctxIndex {
	all := make([]int, len(states))
	for si := range all {
		all[si] = si
	}
	x := ctxIndex{all: newCtxScope(states, all, len(byAttr)), byAttr: make([]ctxScope, len(byAttr))}
	for ai, sis := range byAttr {
		x.byAttr[ai] = newCtxScope(states, sis, len(byAttr))
	}
	return x
}

// newCtxScope indexes the rules sis (ascending engine indexes) of a schema
// with the given arity.
func newCtxScope(states []*ruleState, sis []int, arity int) ctxScope {
	var sc ctxScope
	// Each filed position's table spans its constants' VID range.
	lo := make([]relation.VID, arity)
	hi := make([]relation.VID, arity)
	filed := make([]bool, arity)
	for _, si := range sis {
		st := states[si]
		k := st.selector()
		if k < 0 {
			sc.open = append(sc.open, int32(si))
			continue
		}
		ai, c := st.lhsIdx[k], st.lhsPat[k]
		if !filed[ai] {
			lo[ai], hi[ai], filed[ai] = c, c, true
		}
		lo[ai], hi[ai] = min(lo[ai], c), max(hi[ai], c)
	}
	at := make([]int, arity) // position -> index into sc.pos
	for ai := range filed {
		if filed[ai] {
			at[ai] = len(sc.pos)
			sc.pos = append(sc.pos, ctxPos{ai: ai, base: lo[ai], offs: make([]int32, hi[ai]-lo[ai]+2)})
		}
	}
	// Counting sort by (position, VID); rules enter in ascending index, so
	// every group lists them in engine order.
	for _, si := range sis {
		st := states[si]
		if k := st.selector(); k >= 0 {
			p := &sc.pos[at[st.lhsIdx[k]]]
			p.offs[st.lhsPat[k]-p.base+1]++
		}
	}
	n := int32(0)
	for i := range sc.pos {
		offs := sc.pos[i].offs
		offs[0] = n
		for k := 1; k < len(offs); k++ {
			offs[k] += offs[k-1]
		}
		n = offs[len(offs)-1]
	}
	sc.rules = make([]int32, n)
	fill := make([][]int32, len(sc.pos))
	for i := range sc.pos {
		fill[i] = slices.Clone(sc.pos[i].offs)
	}
	for _, si := range sis {
		st := states[si]
		if k := st.selector(); k >= 0 {
			i := at[st.lhsIdx[k]]
			c := st.lhsPat[k] - sc.pos[i].base
			sc.rules[fill[i][c]] = int32(si)
			fill[i][c]++
		}
	}
	return sc
}

// candidates returns, in engine order (ascending rule index), the rules
// whose context can hold row. With ai < 0 every rule is in scope; with
// ai >= 0 only the rules involving attribute ai are, and the row counts
// both as it is and with position ai set to v. Every rule left out provably
// does not hold the row (or either version of it) in its context; callers
// confirm the candidates with matchLHS and matchLHSAt, which a rule whose
// only LHS constant is its selector passes by construction. Emitting engine
// order keeps every caller's fold over the rules in the order a scan over
// all of them takes, which is what keeps floating-point sums such as Eq. 6
// bit-identical.
//
// buf is caller scratch, normally stack-backed; the result may instead
// alias an engine-owned open list and must not be modified. When the row
// reaches no selector list, the open list is returned as it is, with no
// copy and no sort.
func (e *Engine) candidates(buf []int32, row []relation.VID, ai int, v relation.VID) []int32 {
	sc := &e.ctx.all
	if ai >= 0 {
		sc = &e.ctx.byAttr[ai]
	}
	// Lists are appended element by element: a selector list holds a rule
	// or two, too few to pay for a bulk copy.
	out := buf[:0]
	for i := range sc.pos {
		p := &sc.pos[i]
		for _, si := range sc.lookup(p, row[p.ai]) {
			out = append(out, si)
		}
		if p.ai == ai && v != row[ai] {
			for _, si := range sc.lookup(p, v) {
				out = append(out, si)
			}
		}
	}
	if len(out) == 0 {
		return sc.open
	}
	for _, si := range sc.open {
		out = append(out, si)
	}
	sortRuns(out)
	return out
}

// sortRuns sorts a concatenation of a few ascending runs by insertion,
// which costs one pass plus the inversions between runs: none for a single
// selector list, a handful when a list or two meets the open list.
func sortRuns(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
