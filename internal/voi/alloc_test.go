package voi_test

import (
	"testing"

	"gdr/internal/par"
	"gdr/internal/repair"
	"gdr/internal/voi"
)

// TestWarmScorePathZeroAlloc pins the scoring path — RawBenefit, which
// folds the in-context rules' WhatIf deltas from a stack buffer — to zero
// allocations per call. This is the inner loop of every group re-ranking
// between feedback rounds; the CI alloc-guard step runs this test so string
// churn or a heap-allocated delta list can't silently creep back into it.
func TestWarmScorePathZeroAlloc(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	eng, gs := benchSetup(t, 2000)
	r := voi.NewRanker(eng)
	var ups []repair.Update
	for _, g := range gs {
		ups = append(ups, g.Updates...)
	}
	if len(ups) == 0 {
		t.Fatal("no updates to score")
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r.RawBenefit(ups[i%len(ups)])
		i++
	})
	if allocs > 0 {
		t.Fatalf("RawBenefit allocates %.1f times per call, want 0", allocs)
	}
}
