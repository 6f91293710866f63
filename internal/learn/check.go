package learn

// Check is the prequential check of one user-labelled example: whether the
// committee, as it stood just before the example arrived, predicted the
// example's label. AddChecked scores it at once when that committee was
// already grown. Otherwise predicting would have needed a retrain, and the
// check stays pending instead, holding what that retrain would have used —
// the number of examples before this one and the retrain count — so Score
// can grow the same committee later, when the check is read, or never if
// it never is.
//
// The zero Check is a scored miss.
type Check struct {
	// retrains is the retrain count the judging committee's seed derives
	// from.
	retrains int64
	// n is the checked example's index: the judging committee was grown
	// over the n examples before it. Example indices are int32 throughout
	// the trainer.
	n       int32
	pending bool
	hit     bool
}

// ScoredCheck returns an already-scored check, as restored from a snapshot
// that keeps only outcomes.
func ScoredCheck(hit bool) Check { return Check{hit: hit} }

// AddChecked adds a user-labelled example, like Add, and returns the
// prequential check of the model's prediction for it; ok is false when the
// model was not Ready before the example arrived, so there was nothing to
// check. If the committee is fresh the check is scored against it now.
// Otherwise AddChecked counts the retrain Predict would have made, so the
// retrain counter (and every later committee's seed) advances exactly as
// if Predict had been called before Add, and returns the check pending.
func (m *Model) AddChecked(ex Example) (c Check, ok bool) {
	if m.Ready() {
		ok = true
		if m.NeedsRetrain() {
			m.retrains++
			c = Check{retrains: m.retrains, n: int32(m.set.len()), pending: true}
		} else {
			label, _ := m.forest.Predict(ex.Cats, ex.Sim)
			c.hit = label == ex.Label
		}
	}
	m.Add(ex)
	return c, ok
}

// Score reports whether check c, which this model's AddChecked returned,
// was a hit, scoring it first if it is pending; the outcome is memoized in
// *c. Scoring grows the committee the skipped retrain would have grown —
// over the first c.n examples, with the same derived seed — on a prefix
// view of the model's codes, and classifies example c.n by its codes.
// Because codes are ranked by string, the prefix grows the same trees as a
// set interned from those examples alone, and a value the prefix never saw
// finds no child and falls to the node majority, as an unseen string does.
// Score leaves the model itself unchanged; like every Model method it must
// not run concurrently with one that changes the model.
func (m *Model) Score(c *Check) bool {
	if c.pending {
		n := int(c.n)
		prefix := m.set.prefix(n)
		f := grow(&prefix, m.trainConfig(n, c.retrains))
		label, _ := f.vote(m.set.codesOf(n), m.set.sims[n])
		c.hit = label == Label(m.set.labels[n])
		c.pending = false
	}
	return c.hit
}
