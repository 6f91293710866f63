package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gdr/internal/dataset"
	"gdr/internal/par"
	"gdr/internal/repair"
)

// TestWarmGroupsSteadyStateAllocs pins the steady-state poll — a VOI
// Groups call with no intervening feedback — to a small constant allocation
// budget. The incremental group index answers such a poll from its cached
// ranking (one output-slice copy plus closure headers); a regression to the
// per-call partition-rebuild path allocates proportionally to the pending
// list and fails this ceiling immediately. The CI alloc-guard step runs
// this test alongside the voi warm-score guard.
func TestWarmGroupsSteadyStateAllocs(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	d := dataset.Hospital(dataset.Config{N: 2000, Seed: 7, DirtyRate: 0.3})
	s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Groups(OrderVOI, nil)) == 0 { // cold rank fills the index caches
		t.Fatal("no groups to rank")
	}
	const ceiling = 8
	allocs := testing.AllocsPerRun(100, func() {
		s.Groups(OrderVOI, nil)
	})
	if allocs > ceiling {
		t.Fatalf("warm Groups(OrderVOI) allocates %.1f times per call, want <= %d", allocs, ceiling)
	}
}

// TestFeedbackRoundAllocs pins the allocation count of a fixed sequence of
// feedback rounds, each one BenchmarkFeedbackRound's unit of work: rank the
// groups, answer up to ten updates of the top group from the truth. The
// one-worker hospital session is built before counting starts. While it
// counts, the collector is off and one P runs: a collection empties every
// sync.Pool (the learner pools its tree growers, for one), and a pooled
// value put on one P is out of reach of a Get on another, so either moved
// the benchmark's allocs/op by a few from run to run. Counted this way,
// the 80 rounds made 19,204 allocations in each of a dozen runs (Go 1.24,
// 2 CPUs, and 19,207 once); the count is logged, and the ceiling sits 46
// above it, so one more allocation per round fails it.
func TestFeedbackRoundAllocs(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const rounds, ceiling = 80, 19250
	d := dataset.Hospital(dataset.Config{N: 2000, Seed: 7})
	s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC() // two collections empty the pools' both generations
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		gs := s.Groups(OrderVOI, nil)
		if len(gs) == 0 {
			t.Fatalf("the session ran out of groups after %d rounds", i)
		}
		batch := gs[0].Updates
		for _, u := range batch[:min(10, len(batch))] {
			if cur, ok := s.Pending(u.Cell()); !ok || cur != u {
				continue
			}
			switch tv := d.Truth.Get(u.Tid, u.Attr); {
			case u.Value == tv:
				s.UserFeedback(u, repair.Confirm)
			case s.DB().Get(u.Tid, u.Attr) == tv:
				s.UserFeedback(u, repair.Retain)
			default:
				s.UserFeedback(u, repair.Reject)
			}
		}
	}
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("%d rounds allocated %d times (%.2f per round)", rounds, n, float64(n)/rounds)
	if n > ceiling {
		t.Fatalf("%d rounds allocate %d times, want <= %d", rounds, n, ceiling)
	}
}
