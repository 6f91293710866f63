package learn

import "fmt"

// ModelState is the serializable state of one per-attribute learner. The
// committee's trees are deliberately NOT part of it: Train is a pure
// function of (Config.Seed, the example list, the retrain counter), so a
// restored model regrows the byte-identical forest on demand. Snapshots
// stay small and independent of the tree representation, which can evolve
// without a snapshot format bump.
type ModelState struct {
	// Cfg is the forest configuration the model was created with, including
	// the derived per-attribute Seed.
	Cfg Config
	// MinTrain is the readiness threshold (see NewModel).
	MinTrain int
	// Examples is the accumulated training set, in feedback order. A model
	// keeps its examples only as integer codes, so State rebuilds this list
	// on every call; it is the caller's and shares nothing with the model.
	Examples []Example
	// Retrains counts how many times the committee has been regrown; the
	// training seed is derived from it.
	Retrains int64
	// Trained reports whether a forest was grown for the current training
	// set (false while the model is stale or has never predicted).
	Trained bool
}

// State snapshots the model. The example list is rebuilt from the model's
// codes on each call (fresh slices, not shared with the model), so it costs
// one allocation per example list and per feature table, not per example.
func (m *Model) State() ModelState {
	return ModelState{
		Cfg:      m.cfg,
		MinTrain: m.minTrain,
		Examples: m.set.examples(),
		Retrains: m.retrains,
		Trained:  !m.stale && m.forest != nil,
	}
}

// RestoreModel rebuilds a model from a snapshot. If the snapshot recorded a
// trained committee, the forest is regrown here with the same derived seed,
// so the restored model's predictions are byte-identical to the original's
// from this point on. The example list is validated (consistent categorical
// arity, known labels) so a corrupt snapshot errors instead of panicking
// inside later Train/Predict calls, then interned into codes; st is not
// retained.
func RestoreModel(st ModelState) (*Model, error) {
	for i, ex := range st.Examples {
		if ex.Label < 0 || ex.Label >= NumLabels {
			return nil, fmt.Errorf("learn: example %d: label %d out of range", i, ex.Label)
		}
		if len(ex.Cats) != len(st.Examples[0].Cats) {
			return nil, fmt.Errorf("learn: example %d: categorical arity %d, want %d",
				i, len(ex.Cats), len(st.Examples[0].Cats))
		}
	}
	if st.Trained && len(st.Examples) == 0 {
		return nil, fmt.Errorf("learn: snapshot claims a trained committee with no examples")
	}
	if st.Retrains < 0 {
		return nil, fmt.Errorf("learn: negative retrain count %d", st.Retrains)
	}
	m := NewModel(st.Cfg, st.MinTrain)
	if len(st.Examples) > 0 {
		m.set = newTrainSet(st.Examples)
	}
	m.retrains = st.Retrains
	if st.Trained {
		m.train()
	}
	return m, nil
}
