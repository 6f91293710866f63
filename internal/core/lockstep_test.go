package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gdr/internal/core"
	"gdr/internal/dataset"
	"gdr/internal/learn"
	"gdr/internal/oracle"
	"gdr/internal/repair"
	"gdr/internal/snapshot"
)

// eagerRef drives a session through the composition UserFeedback had
// before prequential checks were deferred: predict (retraining a stale
// committee), record whether the prediction matched the answer, learn,
// apply. Its windows live here, test-side, and are swapped into the session
// before anything reads them.
type eagerRef struct {
	s       *core.Session
	windows map[string][]bool
}

func (r *eagerRef) feedback(u repair.Update, fb repair.Feedback) {
	if label, _, ok := r.s.Predict(u); ok {
		w := append(r.windows[u.Attr], label == feedbackLabel(fb))
		if len(w) > core.AccuracyWindow {
			w = w[len(w)-core.AccuracyWindow:]
		}
		r.windows[u.Attr] = w
	}
	r.s.LearnFrom(u, fb)
	r.s.ApplyFeedback(u, fb)
}

// session returns the reference session with its windows swapped in.
func (r *eagerRef) session() *core.Session {
	core.SetHitWindows(r.s, r.windows)
	return r.s
}

func feedbackLabel(fb repair.Feedback) learn.Label {
	switch fb {
	case repair.Confirm:
		return learn.Confirm
	case repair.Reject:
		return learn.Reject
	default:
		return learn.Retain
	}
}

// encoded renders a session's exported state as snapshot bytes.
func encoded(t *testing.T, s *core.Session) []byte {
	t.Helper()
	data, err := snapshot.EncodeState("", s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// lockstepInstances are the workloads the lockstep tests drive: the two
// generators of the paper's evaluation, with their ground truth as the user.
func lockstepInstances() []struct {
	name string
	d    *dataset.Data
} {
	cfg := dataset.Config{N: 3000, Seed: 13, DirtyRate: 0.3}
	return []struct {
		name string
		d    *dataset.Data
	}{
		{"hospital", dataset.Hospital(cfg)},
		{"census", dataset.Census(cfg)},
	}
}

// TestDeferredChecksLockstep drives one session through UserFeedback and a
// reference through the eager composition, answering the same oracle
// verdicts, and compares them byte for byte whenever the deferred session's
// windows are read: ModelStats and the encoded ExportState (models, retrain
// counters, windows and everything else). Reads come after every answer,
// at random points (with learner sweeps and a snapshot → RestoreSession
// round trip of the deferred session mid-stream), or only after stretches
// of hundreds of answers, so most checks slide out of their windows
// without ever being scored.
func TestDeferredChecksLockstep(t *testing.T) {
	modes := []struct {
		name string
		// The drive stops after the round that reaches maxAnswers.
		maxAnswers int
		// readP is the chance of a read after an answer; readEvery forces
		// one every that many answers (0: never).
		readP     float64
		readEvery int
		sweeps    bool
		restore   bool
	}{
		{name: "every-answer", maxAnswers: 300, readP: 1},
		{name: "random", maxAnswers: 900, readP: 0.08, sweeps: true, restore: true},
		{name: "sparse", maxAnswers: 900, readEvery: 300},
	}
	for _, inst := range lockstepInstances() {
		for _, workers := range []int{1, 4} {
			for mi, mode := range modes {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", inst.name, workers, mode.name), func(t *testing.T) {
					cfg := core.Config{Seed: 7, Workers: workers}
					a, err := core.NewSession(inst.d.Dirty.Clone(), inst.d.Rules, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := core.NewSession(inst.d.Dirty.Clone(), inst.d.Rules, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref := &eagerRef{s: rs, windows: map[string][]bool{}}
					orc := oracle.New(inst.d.Truth)
					rng := rand.New(rand.NewSource(int64(31*workers + mi)))
					restoreAt := 100 + rng.Intn(200)
					answers, reads := 0, 0
					compare := func(when string) {
						t.Helper()
						reads++
						r := ref.session()
						ga, gr := fmt.Sprint(a.ModelStats()), fmt.Sprint(r.ModelStats())
						if ga != gr {
							t.Fatalf("%s: ModelStats\n deferred %s\n eager    %s", when, ga, gr)
						}
						if !bytes.Equal(encoded(t, a), encoded(t, r)) {
							t.Fatalf("%s: exported states differ", when)
						}
					}
					for round := 0; answers < mode.maxAnswers; round++ {
						ga, gr := a.Groups(core.OrderVOI, nil), ref.s.Groups(core.OrderVOI, nil)
						if len(ga) != len(gr) {
							t.Fatalf("round %d: %d groups, eager %d", round, len(ga), len(gr))
						}
						if len(ga) == 0 {
							break
						}
						if ga[0].Key != gr[0].Key || math.Float64bits(ga[0].Benefit) != math.Float64bits(gr[0].Benefit) {
							t.Fatalf("round %d: top group %v %x, eager %v %x", round, ga[0].Key, ga[0].Benefit, gr[0].Key, gr[0].Benefit)
						}
						batch := 5 + rng.Intn(11)
						for _, u := range a.GroupUpdates(ga[0].Key) {
							if batch == 0 {
								break
							}
							cur, live := a.Pending(u.Cell())
							if !live || cur != u {
								continue
							}
							if rcur, rlive := ref.s.Pending(u.Cell()); !rlive || rcur != cur {
								t.Fatalf("round %d: %+v pending in one session only", round, cur)
							}
							batch--
							fb := orc.Feedback(a.DB(), cur)
							a.UserFeedback(cur, fb)
							ref.feedback(cur, fb)
							answers++
							if rng.Float64() < mode.readP || (mode.readEvery > 0 && answers%mode.readEvery == 0) {
								compare(fmt.Sprintf("round %d, answer %d", round, answers))
							}
							if mode.restore && answers == restoreAt {
								data, err := snapshot.EncodeState("", a.ExportState())
								if err != nil {
									t.Fatal(err)
								}
								_, st, err := snapshot.DecodeState(data)
								if err != nil {
									t.Fatal(err)
								}
								if a, err = core.RestoreSession(st); err != nil {
									t.Fatal(err)
								}
								compare(fmt.Sprintf("after restore at answer %d", answers))
							}
						}
						if mode.sweeps && rng.Intn(2) == 0 {
							da, dr := a.LearnerSweepGroup(ga[0].Key), ref.session().LearnerSweepGroup(gr[0].Key)
							if fmt.Sprint(da) != fmt.Sprint(dr) {
								t.Fatalf("round %d: learner sweep applied\n deferred %v\n eager    %v", round, da, dr)
							}
						}
					}
					compare("end of drive")
					t.Logf("%d answers, %d reads", answers, reads)
					if answers < 300 {
						t.Fatalf("drive ended after %d answers; enlarge the instance", answers)
					}
					if mode.readEvery > 0 && reads > answers/mode.readEvery+1 {
						t.Fatalf("sparse mode read %d times in %d answers", reads, answers)
					}
					var csvA, csvR bytes.Buffer
					if err := a.DB().WriteCSV(&csvA); err != nil {
						t.Fatal(err)
					}
					if err := ref.s.DB().WriteCSV(&csvR); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(csvA.Bytes(), csvR.Bytes()) {
						t.Fatal("repaired instances differ")
					}
				})
			}
		}
	}
}

// TestUserFeedbackDefersRetrains is the mechanism guard: answering a
// 10-item round on one attribute through UserFeedback grows no committee
// (no PhaseRetrain fires), while the eager composition regrows the stale
// committee for nearly every answer, and the model's retrain counter
// advances exactly as the eager reference's does, answer by answer.
func TestUserFeedbackDefersRetrains(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 500, Seed: 13, DirtyRate: 0.3})
	a, err := core.NewSession(d.Dirty.Clone(), d.Rules, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.NewSession(d.Dirty.Clone(), d.Rules, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref := &eagerRef{s: rs, windows: map[string][]bool{}}
	orc := oracle.New(d.Truth)
	counter := func(n *int) core.PhaseHook {
		return func(phase string) func() {
			if phase == core.PhaseRetrain {
				*n++
			}
			return nil
		}
	}
	retrains := func(s *core.Session, attr string) int64 { return s.ModelFor(attr).State().Retrains }
	for round := 0; round < 40; round++ {
		gs := a.Groups(core.OrderVOI, nil)
		ref.s.Groups(core.OrderVOI, nil)
		if len(gs) == 0 {
			break
		}
		var batch []repair.Update
		for _, u := range a.GroupUpdates(gs[0].Key) {
			if len(batch) < 10 {
				batch = append(batch, u)
			}
		}
		attr := gs[0].Key.Attr
		// Guard a full round on an attribute whose committee already
		// predicts; answer everything else to get there. (ModelStats, unlike
		// ModelFor, creates no model, which would shift later model seeds.)
		guard := false
		for _, st := range a.ModelStats() {
			guard = guard || (st.Attr == attr && st.Ready && len(batch) == 10)
		}
		var deferred, eager int
		var before int64
		if guard {
			before = retrains(a, attr)
			a.SetPhaseHook(counter(&deferred))
			ref.s.SetPhaseHook(counter(&eager))
		}
		for _, u := range batch {
			cur, live := a.Pending(u.Cell())
			if !live || cur != u {
				continue
			}
			fb := orc.Feedback(a.DB(), cur)
			a.UserFeedback(cur, fb)
			ref.feedback(cur, fb)
			if ga, gr := retrains(a, attr), retrains(ref.s, attr); ga != gr {
				t.Fatalf("round %d: retrain counter %d, eager %d", round, ga, gr)
			}
		}
		if !guard {
			continue
		}
		a.SetPhaseHook(nil)
		ref.s.SetPhaseHook(nil)
		if deferred != 0 {
			t.Fatalf("UserFeedback grew %d committees in a 10-answer round", deferred)
		}
		if eager < 5 {
			t.Fatalf("the eager reference retrained only %d times in a 10-answer round; the guard is vacuous", eager)
		}
		if got := retrains(a, attr) - before; got != int64(eager) {
			t.Fatalf("retrain counter advanced by %d, the eager reference retrained %d times", got, eager)
		}
		if !bytes.Equal(encoded(t, a), encoded(t, ref.session())) {
			t.Fatal("exported states differ after the guarded round")
		}
		return
	}
	t.Fatal("no 10-update group on a ready attribute came up")
}
