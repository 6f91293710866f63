package learn

import (
	"math/rand"
	"runtime"
	"testing"

	"gdr/internal/par"
)

// trainedModel returns a serial model fed one interactive-shaped stream and
// trained on it.
func trainedModel(t testing.TB, k int) (*Model, []Example) {
	t.Helper()
	stream := feedbackStream(130, rand.New(rand.NewSource(17)))
	m := NewModel(Config{K: k, Seed: 3, Workers: 1}, 3)
	for _, ex := range stream {
		m.Add(ex)
	}
	if _, _, ok := m.Predict(stream[0].Cats, stream[0].Sim); !ok {
		t.Fatal("model not ready after 130 examples")
	}
	return m, stream
}

// TestWarmPredictZeroAlloc pins the scoring path: once the committee is
// trained, Predict resolves the query's values and walks the trees without
// allocating, for seen and unseen values alike.
func TestWarmPredictZeroAlloc(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	m, stream := trainedModel(t, 10)
	seen := stream[7]
	unseen := append([]string(nil), seen.Cats...)
	unseen[0], unseen[5] = "never seen", ""
	allocs := testing.AllocsPerRun(200, func() {
		m.Predict(seen.Cats, seen.Sim)
		m.Predict(unseen, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("warm Predict makes %v allocs/op, want 0", allocs)
	}
}

// TestRetrainAllocBound pins a retrain to the forest it returns: the Forest,
// its tree table, each tree's node and child arrays, and the closure the
// tree fan-out runs. Scratch (index buffers, count tables, the RNG) comes
// from the grower pool.
func TestRetrainAllocBound(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	const k = 10
	m, stream := trainedModel(t, k)
	q := stream[3]
	allocs := testing.AllocsPerRun(50, func() {
		m.stale = true
		m.Predict(q.Cats, q.Sim)
	})
	t.Logf("%v allocs per retrain of a %d-tree committee", allocs, k)
	if bound := float64(2*k + 3); allocs > bound {
		t.Fatalf("a retrain makes %v allocs, want at most %v", allocs, bound)
	}
}

// TestLearnerHeapNotAboveOracle trains one example stream into many models
// under both trainers and compares what they keep live: the coded model
// (codes, one string per distinct value, flat trees) must not hold more
// than the string-era model (a []string per example, pointer trees with
// map-keyed children).
func TestLearnerHeapNotAboveOracle(t *testing.T) {
	const models = 40
	stream := feedbackStream(130, rand.New(rand.NewSource(19)))
	q := stream[0]
	liveHeap := func(build func() any) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	coded := liveHeap(func() any {
		ms := make([]*Model, models)
		for i := range ms {
			ms[i] = NewModel(Config{Seed: int64(i), Workers: 1}, 3)
			for _, ex := range stream {
				ms[i].Add(ex)
			}
			ms[i].Predict(q.Cats, q.Sim)
		}
		return ms
	})
	oracle := liveHeap(func() any {
		ms := make([]*oracleModel, models)
		for i := range ms {
			ms[i] = newOracleModel(Config{Seed: int64(i), Workers: 1}, 3)
			for _, ex := range stream {
				ms[i].Add(ex)
			}
			ms[i].Predict(q.Cats, q.Sim)
		}
		return ms
	})
	t.Logf("live heap for %d trained models: coded %d B, string-era %d B", models, coded, oracle)
	if coded > oracle {
		t.Fatalf("coded models hold %d B live, more than the string-era trainer's %d B", coded, oracle)
	}
}

// TestTreesHoldOnlySplitNodes pins the tree layout: a leaf child is its
// label, held in the parent's child table, so the only leaf node a trained
// tree may hold is a root that could not split. It trains random streams
// under configurations that end branches every way a tree can: pure
// samples, MaxDepth, too few samples for MinLeaf, and no gainful split.
func TestTreesHoldOnlySplitNodes(t *testing.T) {
	cfgs := []Config{{}, {MaxDepth: 3}, {MinLeaf: 8}, {Unbalanced: true, Mtry: 1}}
	rootLeaves, splits := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := feedbackStream(1+rng.Intn(250), rng)
		for ci, cfg := range cfgs {
			cfg.Seed, cfg.Workers = seed, 1
			f := Train(stream, cfg)
			for k, tr := range f.trees {
				if len(tr.nodes) == 1 && tr.nodes[0].feat == leafNode {
					rootLeaves++
					continue
				}
				for i, n := range tr.nodes {
					if n.feat == leafNode {
						t.Fatalf("stream %d config %d tree %d: node %d of %d is a leaf", seed, ci, k, i, len(tr.nodes))
					}
					splits++
				}
			}
		}
	}
	t.Logf("%d split nodes, %d single-leaf trees", splits, rootLeaves)
	if rootLeaves == 0 || splits == 0 {
		t.Fatal("the streams grew no single-leaf tree or no split")
	}
}
