package core

import (
	"sort"
)

// Rule ranking is the extension the authors describe in their DBRank
// workshop paper (reference [21]): generating suggestions for *all* dirty
// tuples up front is expensive, so rules are ranked and each interactive
// session processes only the dirty tuples of the most valuable rules.
//
// A rule's value is its weighted violation mass wi · vio(D,{φi}) — the same
// ingredients as the Eq. 6 benefit, aggregated per rule instead of per
// update group.

// RankedRules returns the engine indexes of all rules ordered by descending
// weighted violation mass; rules without violations come last.
func (s *Session) RankedRules() []int {
	ris := make([]int, len(s.eng.Rules()))
	mass := make([]float64, len(ris))
	for i := range ris {
		ris[i] = i
		mass[i] = s.ranker.Weight(i) * float64(s.eng.Vio(i))
	}
	sort.SliceStable(ris, func(a, b int) bool {
		if mass[ris[a]] != mass[ris[b]] {
			return mass[ris[a]] > mass[ris[b]]
		}
		return s.eng.Rules()[ris[a]].ID < s.eng.Rules()[ris[b]].ID
	})
	return ris
}

// DirtyTuplesOf returns the dirty tuples violating at least one of the given
// rules (engine indexes), in ascending id order.
func (s *Session) DirtyTuplesOf(ris []int) []int {
	var out []int
	for _, tid := range s.eng.Dirty() {
		for _, ri := range ris {
			if s.eng.Violates(ri, tid) {
				out = append(out, tid)
				break
			}
		}
	}
	return out
}

// FocusTopRules trims the pending-update list to the dirty tuples of the n
// highest-ranked rules and returns the retained rule indexes. Suggestions
// for other tuples are regenerated on demand as the consistency manager
// revisits them, so nothing is lost — only deferred. n ≤ 0 is a no-op that
// returns the full ranking.
func (s *Session) FocusTopRules(n int) []int {
	ranked := s.RankedRules()
	if n <= 0 || n >= len(ranked) {
		return ranked
	}
	top := ranked[:n]
	keep := make(map[int]bool)
	for _, tid := range s.DirtyTuplesOf(top) {
		keep[tid] = true
	}
	for _, u := range s.index.AppendAll(nil) {
		if !keep[u.Tid] {
			s.retire(u.Cell())
		}
	}
	return top
}

// RefocusAll regenerates suggestions for every dirty tuple, undoing a
// previous FocusTopRules (e.g. when the focused rules' updates are
// exhausted and the session widens its scope). Existing pending suggestions
// are kept.
func (s *Session) RefocusAll() {
	for _, tid := range s.eng.Dirty() {
		for _, nu := range s.gen.SuggestTuple(tid) {
			if _, ok := s.index.Get(nu.Cell()); !ok {
				s.index.Set(nu)
			}
		}
	}
}
