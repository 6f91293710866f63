package learn

import (
	"math/rand"
	"testing"
)

// TestTrainParallelDeterminism verifies that the committee trained over a
// worker pool is identical to the serial one: each tree draws from its own
// Seed-derived RNG, so the forest must not depend on the worker count or on
// goroutine scheduling.
func TestTrainParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exs := synthExamples(120, rng)
	serial := Train(exs, Config{K: 12, Seed: 42, Workers: 1})
	for _, workers := range []int{2, 4, 9, 32} {
		parallel := Train(exs, Config{K: 12, Seed: 42, Workers: workers})
		for i := 0; i < 60; i++ {
			ex := synthExamples(1, rng)[0]
			l1, v1 := serial.Predict(ex.Cats, ex.Sim)
			l2, v2 := parallel.Predict(ex.Cats, ex.Sim)
			if l1 != l2 || v1 != v2 {
				t.Fatalf("workers=%d diverged from serial: %v/%v vs %v/%v", workers, l2, v2, l1, v1)
			}
		}
	}
}

// TestTrainWorkersExceedingTrees trains with more workers than trees.
func TestTrainWorkersExceedingTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	exs := synthExamples(60, rng)
	f := Train(exs, Config{K: 3, Seed: 9, Workers: 16})
	if f.K() != 3 {
		t.Fatalf("committee size = %d, want 3", f.K())
	}
	for _, tree := range f.trees {
		if len(tree.nodes) == 0 {
			t.Fatal("parallel training left an empty tree")
		}
	}
}
