package core

import (
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// ApplyFeedback is the updates consistency manager of Appendix A.5: it
// applies one decision — from the user or the learner — to the database and
// restores the two invariants:
//
//	(i)  every tuple violating a rule is in DirtyTuples (maintained by the
//	     violation engine), and
//	(ii) no pending update depends on data values that have been modified
//	     (stale suggestions for affected tuples are dropped and regenerated).
//
// A retain locks the cell (Changeable = false). A reject adds the value to
// the cell's prevented list and immediately searches for a replacement
// suggestion. A confirm applies the value, locks the cell, revisits every
// tuple whose violation status changed, and then applies any forced
// constant-rule fixes (step 3(a)i): when all LHS cells of a violated
// constant CFD are confirmed correct, its RHS pattern value is the only
// consistent repair and is applied without consulting anyone.
func (s *Session) ApplyFeedback(u repair.Update, fb repair.Feedback) {
	cell := u.Cell()
	switch fb {
	case repair.Retain:
		s.gen.Lock(u.Tid, u.Attr)
		s.retire(cell)
		// Retaining a value also confirms it, which can complete a violated
		// constant rule's LHS and force its RHS (step 3(a)i applies here too).
		s.forcedFixes(u.Tid)
	case repair.Reject:
		s.gen.Prevent(u.Tid, u.Attr, u.Value)
		s.retire(cell)
		if nu, ok := s.gen.Suggest(u.Tid, u.Attr); ok {
			s.index.Set(nu)
		}
	case repair.Confirm:
		s.gen.Lock(u.Tid, u.Attr)
		s.retire(cell)
		affected := s.gen.Apply(u.Tid, u.Attr, u.Value)
		s.Applied++
		s.revisit(affected)
		s.forcedFixes(u.Tid)
	}
}

// Insert adds a newly entered tuple to the session — the online monitoring
// mode the paper sketches in Section 3: the consistency manager is informed
// of the new tuple, revisits every affected tuple, and immediately derives
// suggestions for emerging violations. It returns the new tuple's id.
func (s *Session) Insert(t relation.Tuple) (int, error) {
	tid, affected, err := s.gen.Insert(t)
	if err != nil {
		return 0, err
	}
	s.tupleVer = append(s.tupleVer, 0)
	s.revisit(affected)
	return tid, nil
}

// LearnerDecision applies a model-made decision. Only confirms act: the
// learner's purpose is to "identify and apply the correct updates directly"
// (Section 1), and a confirm is applied exactly like a user confirm. Reject
// and retain predictions are advisory — the user's irreversible bookkeeping
// (prevented values, changeable flags) is reserved for actual user feedback,
// since a wrong learner reject would ban the true value forever and a wrong
// retain would freeze a wrong cell; the suggestion simply stays pending for
// a later user pass. It reports whether the decision changed anything.
func (s *Session) LearnerDecision(u repair.Update, fb repair.Feedback) bool {
	if fb != repair.Confirm {
		return false
	}
	s.ApplyFeedback(u, repair.Confirm)
	return true
}

// revisit re-derives the pending updates of every affected tuple against the
// new database instance: stale suggestions are dropped; tuples that are
// still (or newly) dirty get fresh suggestions. Suggestion generation only
// reads the instance, so after the serial invalidation pass the still-dirty
// tuples are regenerated as one SuggestBatch — fanned out over the session's
// workers for large cascades — and merged back into possible in tuple order,
// which is byte-identical to the serial per-tuple loop at any worker count.
func (s *Session) revisit(tids []int) {
	dirty := make([]int, 0, len(tids))
	for _, tid := range tids {
		s.tupleVer[tid]++
		for _, attr := range s.db.Schema.Attrs {
			s.retire(repair.CellKey{Tid: tid, Attr: attr})
		}
		if s.eng.IsDirty(tid) {
			dirty = append(dirty, tid)
		}
	}
	done := s.phase(PhaseSuggest)
	batch := s.gen.SuggestBatch(dirty)
	if done != nil {
		done()
	}
	for _, nu := range batch {
		s.index.Set(nu)
	}
}

// retire drops a cell's pending suggestion from the group index, and its
// prediction with it.
func (s *Session) retire(c repair.CellKey) {
	s.index.Delete(c)
	s.forget(c)
}

// forcedFixes applies step 3(a)i of the consistency manager to a tuple,
// cascading while new forced repairs keep appearing (each application locks
// a cell, so the cascade terminates).
func (s *Session) forcedFixes(tid int) {
	for {
		fixed := false
		for _, ri := range s.eng.VioRuleList(tid) {
			rule := s.eng.Rules()[ri]
			if !rule.Constant() {
				continue
			}
			if s.gen.Locked(tid, rule.RHS) {
				continue // contradictory confirmations; leave to the user
			}
			allLocked := true
			for _, a := range rule.LHS {
				if !s.gen.Locked(tid, a) {
					allLocked = false
					break
				}
			}
			if !allLocked {
				continue
			}
			want := rule.TP[rule.RHS]
			s.gen.Lock(tid, rule.RHS)
			s.retire(repair.CellKey{Tid: tid, Attr: rule.RHS})
			affected := s.gen.Apply(tid, rule.RHS, want)
			s.Applied++
			s.ForcedFixes++
			s.revisit(affected)
			fixed = true
			break
		}
		if !fixed {
			return
		}
	}
}
