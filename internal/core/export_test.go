package core

import "gdr/internal/learn"

// SetHitWindows replaces s's prequential windows with scored checks of the
// given outcomes. The lockstep tests drive a reference session through the
// eager composition (Predict, record the hit, LearnFrom, ApplyFeedback),
// keep its windows test-side, and swap them in before the reference is read.
func SetHitWindows(s *Session, ws map[string][]bool) {
	s.hits = make(map[string][]learn.Check, len(ws))
	for attr, w := range ws {
		for _, hit := range w {
			s.recordCheck(attr, learn.ScoredCheck(hit))
		}
	}
}

// AccuracyWindow exports the prequential window length to the lockstep
// tests.
const AccuracyWindow = accuracyWindow
