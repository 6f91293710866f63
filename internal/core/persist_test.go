package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gdr/internal/dataset"
	"gdr/internal/learn"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// observe renders everything a serving tier exposes about a session —
// ranked groups with exact benefits, every pending update with its exact
// score, stats, model stats and the CSV export — into one string, so two
// sessions can be compared byte-for-byte. Floats print as hex to make the
// comparison bit-exact.
func observe(t *testing.T, s *Session) string {
	t.Helper()
	var b strings.Builder
	for _, g := range s.Groups(OrderVOI, nil) {
		fmt.Fprintf(&b, "group %s=%s size=%d benefit=%x\n", g.Key.Attr, g.Key.Value, g.Size(), g.Benefit)
	}
	for _, u := range s.PendingUpdates() {
		fmt.Fprintf(&b, "pending t%d %s=%s score=%x cur=%s\n", u.Tid, u.Attr, u.Value, u.Score, s.DB().Get(u.Tid, u.Attr))
	}
	fmt.Fprintf(&b, "stats %+v\n", s.Stats())
	for _, m := range s.ModelStats() {
		fmt.Fprintf(&b, "model %s ex=%d ready=%v assessed=%v acc=%x trusted=%v\n",
			m.Attr, m.Examples, m.Ready, m.Assessed, m.Accuracy, m.Trusted)
	}
	var csv bytes.Buffer
	if err := s.DB().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	b.Write(csv.Bytes())
	return b.String()
}

// driveRound plays one full interactive round — top VOI group, oracle
// verbs decided from the pre-round snapshot, a learner sweep — and reports
// whether there was anything left to do.
func driveRound(t *testing.T, s *Session, truth *relation.DB) bool {
	t.Helper()
	gs := s.Groups(OrderVOI, nil)
	if len(gs) == 0 {
		return false
	}
	ups := s.GroupUpdates(gs[0].Key)
	type decision struct {
		u  repair.Update
		fb repair.Feedback
	}
	ds := make([]decision, 0, len(ups))
	for _, u := range ups {
		switch tv := truth.Get(u.Tid, u.Attr); {
		case u.Value == tv:
			ds = append(ds, decision{u, repair.Confirm})
		case s.DB().Get(u.Tid, u.Attr) == tv:
			ds = append(ds, decision{u, repair.Retain})
		default:
			ds = append(ds, decision{u, repair.Reject})
		}
	}
	for _, d := range ds {
		if cur, live := s.Pending(d.u.Cell()); live && cur.Value == d.u.Value {
			s.UserFeedback(cur, d.fb)
		}
	}
	s.LearnerSweep(4)
	return true
}

// TestSessionSnapshotRoundTrip is the tentpole guarantee at the library
// level: a session snapshotted after K feedback rounds and restored yields
// byte-identical groups, updates, stats, model state and exports versus the
// uninterrupted session — immediately, and through every subsequent round —
// at worker counts 1 and 4. It also checks the exported state is isolated:
// driving the original session further does not disturb a snapshot taken
// earlier.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := dataset.Hospital(dataset.Config{N: 220, Seed: 17, DirtyRate: 0.3})
			a, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			const snapAfter = 5
			for i := 0; i < snapAfter; i++ {
				if !driveRound(t, a, d.Truth) {
					t.Fatalf("session exhausted after %d rounds; enlarge the workload", i)
				}
			}
			st := a.ExportState()
			atSnap := observe(t, a)

			b, err := RestoreSession(st)
			if err != nil {
				t.Fatal(err)
			}
			// The group index is derived state — snapshots carry only the flat
			// pending list — so the restored session's incremental ranking must
			// equal a from-scratch Partition+Rank of that list exactly.
			diffGroups(t, -1, b.Groups(OrderVOI, nil), referenceGroups(b))
			if got := observe(t, b); got != atSnap {
				t.Fatalf("restored session diverges at the snapshot point:\n%s", firstDiff(atSnap, got))
			}

			// Lockstep from the snapshot point: both sessions must agree on
			// every observable after every subsequent round.
			for round := 0; ; round++ {
				moreA := driveRound(t, a, d.Truth)
				moreB := driveRound(t, b, d.Truth)
				if moreA != moreB {
					t.Fatalf("round %d: one session exhausted before the other", round)
				}
				oa, ob := observe(t, a), observe(t, b)
				if oa != ob {
					t.Fatalf("round %d after restore diverges:\n%s", round, firstDiff(oa, ob))
				}
				if !moreA || round >= 12 {
					break
				}
			}

			// The snapshot must be isolated from the live session: a second
			// restore from the same state, taken after all that extra
			// driving, still lands exactly at the snapshot point.
			c, err := RestoreSession(st)
			if err != nil {
				t.Fatal(err)
			}
			if got := observe(t, c); got != atSnap {
				t.Fatal("snapshot state was disturbed by driving the original session")
			}
		})
	}
}

// TestSessionSnapshotReplaysShuffleStream: the session-owned RNG behind
// Groups(OrderRandom, nil) must resume mid-stream after a restore — the
// next shuffle order matches the uninterrupted session's.
func TestSessionSnapshotReplaysShuffleStream(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 120, Seed: 3, DirtyRate: 0.3})
	a, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	order := func(s *Session) string {
		var b strings.Builder
		for _, g := range s.Groups(OrderRandom, nil) {
			fmt.Fprintf(&b, "%s=%s;", g.Key.Attr, g.Key.Value)
		}
		return b.String()
	}
	for i := 0; i < 3; i++ {
		order(a) // advance the stream
	}
	b, err := RestoreSession(a.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if oa, ob := order(a), order(b); oa != ob {
			t.Fatalf("shuffle %d after restore diverges:\n a: %s\n b: %s", i, oa, ob)
		}
	}
}

// TestRestoreSessionRejectsCorruptState: cross-reference damage must come
// back as an error, never a panic.
func TestRestoreSessionRejectsCorruptState(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 60, Seed: 9, DirtyRate: 0.3})
	s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive until some committee's predictions have been checked, so the
	// state carries a prequential window to damage.
	for i := 0; i < 10 && len(s.ExportState().Hits) == 0; i++ {
		driveRound(t, s, d.Truth)
	}
	base := s.ExportState()
	if len(base.Hits) == 0 {
		t.Fatal("expected a prequential window in the driven session")
	}
	corruptions := map[string]func(st *SessionState){
		"nil state":            func(st *SessionState) { *st = SessionState{} },
		"row VID out of range": func(st *SessionState) { st.Rows[0][0] = relation.VID(1 << 30) },
		"short rule weights":   func(st *SessionState) { st.RuleWeights = st.RuleWeights[:1] },
		// wi = |D(φi)|/|D| lies in [0, 1]; a NaN or infinite weight turns
		// benefits into NaN and breaks the ranking's strict total order.
		"NaN rule weight":      func(st *SessionState) { st.RuleWeights[0] = math.NaN() },
		"infinite rule weight": func(st *SessionState) { st.RuleWeights[0] = math.Inf(1) },
		"negative rule weight": func(st *SessionState) { st.RuleWeights[0] = -0.5 },
		// sj lies in [0, 1] and is p̃j until a committee is ready; a NaN
		// or infinite one breaks the ranking's strict total order too.
		"NaN update score":      func(st *SessionState) { st.Possible[0].Score = math.NaN() },
		"infinite update score": func(st *SessionState) { st.Possible[0].Score = math.Inf(1) },
		"update score above 1":  func(st *SessionState) { st.Possible[0].Score = 1.5 },
		"pending out of range": func(st *SessionState) {
			st.Possible = append(st.Possible, repair.Update{Tid: 1 << 30, Attr: st.Attrs[0]})
		},
		"unknown model attr":  func(st *SessionState) { st.Models = append(st.Models, AttrModelState{Attr: "no-such-attr"}) },
		"locked out of range": func(st *SessionState) { st.Locked = append(st.Locked, repair.LockedCell{Tid: -1}) },
		"model example arity off schema": func(st *SessionState) {
			// A model whose examples disagree with the schema's feature
			// arity would panic inside Forest.Predict post-restore.
			if len(st.Models) == 0 {
				t.Fatal("expected trained models in the driven session")
			}
			st.Models[0].State.Examples = []learn.Example{{Cats: []string{"lone"}, Label: learn.Confirm}}
			st.Models[0].State.MinTrain = 1
		},
		"negative counters": func(st *SessionState) { st.Applied = -3 },
		// A window's checks judge its model's committees: one window per
		// modelled attribute, no longer than the session ever keeps.
		"duplicate hit window": func(st *SessionState) { st.Hits = append(st.Hits, st.Hits[0]) },
		"hit window too long": func(st *SessionState) {
			st.Hits[0].Window = make([]bool, accuracyWindow+1)
		},
		"hit window without a model": func(st *SessionState) {
			st.Models = slices.DeleteFunc(st.Models, func(m AttrModelState) bool { return m.Attr == st.Hits[0].Attr })
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			// Re-export per case: corruption functions may alias state.
			st := s.ExportState()
			corrupt(st)
			if _, err := RestoreSession(st); err == nil {
				t.Fatal("corrupt state restored without error")
			}
		})
	}
	if _, err := RestoreSession(base); err != nil {
		t.Fatalf("pristine state failed to restore: %v", err)
	}
}

// firstDiff renders the first line where two observations diverge.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n a: %s\n b: %s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
