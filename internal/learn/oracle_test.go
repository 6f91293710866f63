package learn

// The string-keyed trainer the coded one replaced, kept verbatim (only
// renamed) as the oracle for the equivalence tests below: per-node
// map[string][]int partitions, map-keyed children, a rand.NewSource per tree.
// The coded trainer must grow the same committees, so every label and vote
// it produces must match this one bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gdr/internal/par"
)

// oracleNode is one decision-tree node. A leaf predicts its majority label;
// internal nodes split on either a categorical feature (children by value)
// or the numeric similarity feature (threshold).
type oracleNode struct {
	majority Label

	leaf bool

	// Categorical split: catFeat >= 0 and children indexed by value.
	catFeat  int
	children map[string]*oracleNode

	// Numeric split: catFeat == -1; Sim <= thresh goes left.
	thresh float64
	left   *oracleNode
	right  *oracleNode
}

// oracleTreeConfig bundles the per-tree growth limits.
type oracleTreeConfig struct {
	maxDepth int
	minLeaf  int
	mtry     int
	nCats    int // number of categorical features; the numeric feature has index nCats
}

func oracleCountLabels(exs []Example, idx []int) [NumLabels]int {
	var c [NumLabels]int
	for _, i := range idx {
		c[exs[i].Label]++
	}
	return c
}

// oracleBuildTree grows one decision tree over exs[idx] with random feature
// subsampling at each split.
func oracleBuildTree(exs []Example, idx []int, cfg oracleTreeConfig, rng *rand.Rand, depth int) *oracleNode {
	counts := oracleCountLabels(exs, idx)
	n := &oracleNode{majority: majorityOf(counts), catFeat: -1}
	total := len(idx)
	if total == 0 {
		n.leaf = true
		return n
	}
	pure := false
	for _, k := range counts {
		if k == total {
			pure = true
		}
	}
	if pure || depth >= cfg.maxDepth || total < 2*cfg.minLeaf {
		n.leaf = true
		return n
	}

	parentH := entropy(counts, total)
	nFeats := cfg.nCats + 1
	feats := rng.Perm(nFeats)
	if len(feats) > cfg.mtry {
		feats = feats[:cfg.mtry]
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	var bestParts map[string][]int
	var bestLeft, bestRight []int

	for _, f := range feats {
		if f < cfg.nCats {
			parts := make(map[string][]int)
			for _, i := range idx {
				v := exs[i].Cats[f]
				parts[v] = append(parts[v], i)
			}
			if len(parts) < 2 {
				continue
			}
			childH := 0.0
			for _, part := range parts {
				childH += float64(len(part)) / float64(total) * entropy(oracleCountLabels(exs, part), len(part))
			}
			if gain := parentH - childH; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestParts = gain, f, parts
			}
			continue
		}
		// Numeric feature: try quantile thresholds over distinct sims.
		sims := make([]float64, 0, total)
		for _, i := range idx {
			sims = append(sims, exs[i].Sim)
		}
		sort.Float64s(sims)
		for _, th := range oracleThresholds(sims) {
			var lc, rc [NumLabels]int
			ln, rn := 0, 0
			for _, i := range idx {
				if exs[i].Sim <= th {
					lc[exs[i].Label]++
					ln++
				} else {
					rc[exs[i].Label]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			childH := float64(ln)/float64(total)*entropy(lc, ln) + float64(rn)/float64(total)*entropy(rc, rn)
			if gain := parentH - childH; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestThresh = gain, f, th
				bestParts = nil
			}
		}
	}

	if bestFeat < 0 || bestGain <= 1e-12 {
		n.leaf = true
		return n
	}
	if bestParts != nil {
		n.catFeat = bestFeat
		n.children = make(map[string]*oracleNode, len(bestParts))
		// Recurse over children in sorted key order so the shared RNG is
		// consumed identically across runs: training stays deterministic.
		keys := make([]string, 0, len(bestParts))
		for v := range bestParts {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		for _, v := range keys {
			n.children[v] = oracleBuildTree(exs, bestParts[v], cfg, rng, depth+1)
		}
		return n
	}
	// Numeric split.
	n.thresh = bestThresh
	for _, i := range idx {
		if exs[i].Sim <= bestThresh {
			bestLeft = append(bestLeft, i)
		} else {
			bestRight = append(bestRight, i)
		}
	}
	n.left = oracleBuildTree(exs, bestLeft, cfg, rng, depth+1)
	n.right = oracleBuildTree(exs, bestRight, cfg, rng, depth+1)
	return n
}

// oracleThresholds picks up to 8 candidate split points (midpoints between
// adjacent distinct values) from a sorted slice.
func oracleThresholds(sorted []float64) []float64 {
	var uniq []float64
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	var mids []float64
	for i := 1; i < len(uniq); i++ {
		mids = append(mids, (uniq[i-1]+uniq[i])/2)
	}
	if len(mids) <= 8 {
		return mids
	}
	out := make([]float64, 0, 8)
	for i := 0; i < 8; i++ {
		out = append(out, mids[i*len(mids)/8])
	}
	return out
}

// classify walks the tree; unseen categorical values fall back to the
// current node's majority label.
func (n *oracleNode) classify(cats []string, sim float64) Label {
	for !n.leaf {
		if n.catFeat >= 0 {
			child, ok := n.children[cats[n.catFeat]]
			if !ok {
				return n.majority
			}
			n = child
			continue
		}
		if sim <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.majority
}

// oracleForest is a trained random-forest committee.
type oracleForest struct {
	trees []*oracleNode
	nCats int
}

// oracleTrain grows a random forest over the examples. All examples must share the
// same categorical arity. Training with no examples returns nil.
func oracleTrain(examples []Example, cfg Config) *oracleForest {
	if len(examples) == 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	nCats := len(examples[0].Cats)
	mtry := cfg.Mtry
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(nCats + 1))))
	}
	tc := oracleTreeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, mtry: mtry, nCats: nCats}
	nSample := int(math.Ceil(cfg.SampleFrac * float64(len(examples))))
	if nSample < 1 {
		nSample = 1
	}
	var byLabel [NumLabels][]int
	for i, ex := range examples {
		byLabel[ex.Label] = append(byLabel[ex.Label], i)
	}
	var classes [][]int
	for _, idxs := range byLabel {
		if len(idxs) > 0 {
			classes = append(classes, idxs)
		}
	}
	// Derive one seed per tree up front from the configured seed: each tree's
	// bootstrap and split draws come from its own RNG, so the committee is
	// reproducible for a given Seed regardless of Workers or the order the
	// trees finish growing in.
	seedRNG := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.K)
	for k := range seeds {
		seeds[k] = seedRNG.Int63()
	}
	f := &oracleForest{nCats: nCats, trees: make([]*oracleNode, cfg.K)}
	par.ForEach(par.Workers(cfg.Workers), cfg.K, func(k int) error {
		rng := rand.New(rand.NewSource(seeds[k]))
		idx := make([]int, nSample)
		if cfg.Unbalanced || len(classes) < 2 {
			for i := range idx {
				idx[i] = rng.Intn(len(examples))
			}
		} else {
			for i := range idx {
				class := classes[i%len(classes)]
				idx[i] = class[rng.Intn(len(class))]
			}
		}
		f.trees[k] = oracleBuildTree(examples, idx, tc, rng, 0)
		return nil
	})
	return f
}

// Predict classifies a feature vector: each committee member votes and the
// majority label wins. It panics if cats does not match the training arity.
func (f *oracleForest) Predict(cats []string, sim float64) (Label, Votes) {
	if len(cats) != f.nCats {
		panic("learn: feature arity mismatch")
	}
	var v Votes
	for _, t := range f.trees {
		v[t.classify(cats, sim)] += 1
	}
	for i := range v {
		v[i] /= float64(len(f.trees))
	}
	return v.Top(), v
}

// oracleModel is the per-attribute learner M_Ai of Section 4.2: it accumulates
// training examples from user feedback and retrains its forest lazily.
type oracleModel struct {
	cfg      Config
	minTrain int
	examples []Example
	forest   *oracleForest
	stale    bool
	retrains int64
}

// newOracleModel creates an empty model; minTrain is the minimum number of labeled
// examples before the model makes predictions (values < 1 default to 3).
func newOracleModel(cfg Config, minTrain int) *oracleModel {
	if minTrain < 1 {
		minTrain = 3
	}
	return &oracleModel{cfg: cfg, minTrain: minTrain, stale: true}
}

// Add appends a training example (the user's feedback on one update).
func (m *oracleModel) Add(ex Example) {
	ex.Cats = append([]string(nil), ex.Cats...)
	m.examples = append(m.examples, ex)
	m.stale = true
}

// Ready reports whether the model has enough feedback to predict.
func (m *oracleModel) Ready() bool { return len(m.examples) >= m.minTrain }

// Predict classifies a feature vector, retraining first if new examples
// arrived. ok is false while the model is not Ready; callers should treat
// such updates as maximally uncertain.
func (m *oracleModel) Predict(cats []string, sim float64) (label Label, votes Votes, ok bool) {
	if !m.Ready() {
		return Confirm, Votes{}, false
	}
	if m.stale || m.forest == nil {
		m.retrains++
		m.train()
	}
	label, votes = m.forest.Predict(cats, sim)
	return label, votes, true
}

// train grows the forest for the current training set and retrain count.
// The seed varies across retrains (deterministically) so the committee is
// re-drawn as the training set evolves; because it is a pure function of
// (Config.Seed, len(examples), retrains), a model restored from a snapshot
// retrains to the byte-identical committee (see RestoreModel).
func (m *oracleModel) train() {
	cfg := m.cfg
	cfg.Seed = cfg.Seed*31 + int64(len(m.examples)) + m.retrains
	m.forest = oracleTrain(m.examples, cfg)
	m.stale = false
}

// oracleCase is one randomized equivalence trial: a training set, a forest
// configuration and the queries both trainers must answer alike.
type oracleCase struct {
	examples []Example
	cfg      Config
	queries  []Example
}

// randomOracleCase draws a trial covering the trainer's corner cases:
// arities 0–14, per-feature cardinality from 1 to near-unique, values whose
// string order differs from their order of appearance, quantized Sim values
// (so thresholds tie), one to three classes, and the depth, leaf-size,
// bootstrap and worker settings.
func randomOracleCase(rng *rand.Rand, nCats int) oracleCase {
	n := 1 + rng.Intn(160)
	domains := make([][]string, nCats)
	for f := range domains {
		var card int
		switch rng.Intn(5) {
		case 0:
			card = 1
		case 1:
			card = 2 + rng.Intn(3)
		case 2:
			card = 1 + rng.Intn(12)
		case 3:
			card = 1 + n/2
		default:
			card = n + rng.Intn(8) // near-unique
		}
		domains[f] = randomDomain(rng, card)
	}
	quant := []int{1, 2, 3, 10, 0}[rng.Intn(5)]
	nanRate := 0.0
	if rng.Intn(10) == 0 {
		nanRate = 0.05
	}
	draw := func() Example {
		cats := make([]string, nCats)
		for f, dom := range domains {
			cats[f] = dom[rng.Intn(len(dom))]
		}
		sim := rng.Float64()
		if quant > 0 {
			sim = float64(rng.Intn(quant+1)) / float64(quant)
		}
		if rng.Float64() < nanRate {
			sim = math.NaN()
		}
		return Example{Cats: cats, Sim: sim}
	}
	labels := []Label{Confirm, Reject, Retain}
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	labels = labels[:1+rng.Intn(NumLabels)]
	// Half the trials make the label depend on the first feature so trees
	// find real splits; the rest are noise and grow until the depth or
	// leaf-size limits stop them.
	keyed := nCats > 0 && rng.Intn(2) == 0
	exs := make([]Example, n)
	for i := range exs {
		ex := draw()
		if keyed && rng.Intn(8) != 0 {
			ex.Label = labels[len(ex.Cats[0])%len(labels)]
		} else {
			ex.Label = labels[rng.Intn(len(labels))]
		}
		exs[i] = ex
	}
	cfg := Config{
		K:          1 + rng.Intn(12),
		MaxDepth:   []int{0, 1, 12}[rng.Intn(3)],
		MinLeaf:    1 + rng.Intn(3),
		SampleFrac: []float64{0, 0.5, 1}[rng.Intn(3)],
		Mtry:       []int{0, 0, 1, nCats + 1}[rng.Intn(4)],
		Unbalanced: rng.Intn(2) == 0,
		Seed:       rng.Int63() - rng.Int63(),
		Workers:    []int{1, 4}[rng.Intn(2)],
	}
	queries := append([]Example(nil), exs...)
	for q := 0; q < 24; q++ {
		ex := draw()
		for f := range ex.Cats {
			if rng.Intn(4) == 0 {
				ex.Cats[f] = fmt.Sprintf("unseen-%d", rng.Intn(3))
			}
		}
		queries = append(queries, ex)
	}
	return oracleCase{examples: exs, cfg: cfg, queries: queries}
}

// randomDomain returns card short strings over a small alphabet (so some
// share prefixes, and duplicates lower the real cardinality), plus "" and a
// multi-byte value now and then.
func randomDomain(rng *rand.Rand, card int) []string {
	dom := make([]string, card)
	for i := range dom {
		var b strings.Builder
		for l := rng.Intn(4); l >= 0; l-- {
			b.WriteByte("abAB09 "[rng.Intn(7)])
		}
		dom[i] = b.String()
	}
	if card > 2 && rng.Intn(3) == 0 {
		dom[0] = ""
		dom[1] = "Zürich"
	}
	return dom
}

// sameExamples compares example lists, Sim by bits (NaN included).
func sameExamples(a, b []Example) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Cats, b[i].Cats) || a[i].Label != b[i].Label ||
			math.Float64bits(a[i].Sim) != math.Float64bits(b[i].Sim) {
			return false
		}
	}
	return true
}

func sameVotes(t *testing.T, what string, gl Label, gv Votes, wl Label, wv Votes) {
	t.Helper()
	if gl != wl || gv != wv {
		t.Fatalf("%s: coded trainer predicts %v %v, oracle %v %v", what, gl, gv, wl, wv)
	}
}

// TestOracleEquivalence grows the same random training sets under both
// trainers and requires every label and vote to match bit for bit.
func TestOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1103))
	for trial := 0; trial < 450; trial++ {
		tc := randomOracleCase(rng, trial%15)
		want := oracleTrain(tc.examples, tc.cfg)
		got := Train(tc.examples, tc.cfg)
		if got.K() != len(want.trees) {
			t.Fatalf("trial %d: K = %d, oracle %d", trial, got.K(), len(want.trees))
		}
		for qi, q := range tc.queries {
			gl, gv := got.Predict(q.Cats, q.Sim)
			wl, wv := want.Predict(q.Cats, q.Sim)
			sameVotes(t, fmt.Sprintf("trial %d (cfg %+v, %d examples), query %d", trial, tc.cfg, len(tc.examples), qi), gl, gv, wl, wv)
		}
	}
}

// TestOracleEquivalenceModelStream feeds the same examples one at a time to
// a Model and to the string-era model, predicting at random points, so the
// codes are built incrementally (new values shifting old codes) and every
// retrain seed is exercised. Midway the Model goes through a State /
// RestoreModel round trip and must carry on in lockstep.
func TestOracleEquivalenceModelStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3103))
	for trial := 0; trial < 40; trial++ {
		tc := randomOracleCase(rng, rng.Intn(15))
		minTrain := 1 + rng.Intn(4)
		m := NewModel(tc.cfg, minTrain)
		om := newOracleModel(tc.cfg, minTrain)
		restoreAt := rng.Intn(len(tc.examples) + 1)
		for i, ex := range tc.examples {
			if i == restoreAt {
				st := m.State()
				if !sameExamples(st.Examples, om.examples) {
					t.Fatalf("trial %d: State examples differ from the examples added", trial)
				}
				var err error
				if m, err = RestoreModel(st); err != nil {
					t.Fatalf("trial %d: restore: %v", trial, err)
				}
			}
			m.Add(ex)
			om.Add(ex)
			if rng.Intn(2) == 0 {
				continue
			}
			for k := 0; k < 3; k++ {
				q := tc.queries[rng.Intn(len(tc.queries))]
				gl, gv, gok := m.Predict(q.Cats, q.Sim)
				wl, wv, wok := om.Predict(q.Cats, q.Sim)
				if gok != wok {
					t.Fatalf("trial %d, example %d: ready %v, oracle %v", trial, i, gok, wok)
				}
				sameVotes(t, fmt.Sprintf("trial %d, example %d", trial, i), gl, gv, wl, wv)
			}
		}
		if m.Len() != len(om.examples) || m.retrains != om.retrains {
			t.Fatalf("trial %d: len %d retrains %d, oracle %d %d", trial, m.Len(), m.retrains, len(om.examples), om.retrains)
		}
	}
}

// TestDeferredCheckOracle feeds randomized streams to a Model through
// AddChecked and to the string-era model in the eager order — Predict
// (retraining when stale), then Add — and scores the pending checks at
// random later times: every outcome must equal the eager prediction's hit,
// and the retrain counters must advance alike. The streams bring values new
// to a feature after earlier checks (so codes shift under pending ones),
// interleave queries (so some committees are fresh and checks score at
// once), and cover single-class prefixes, NaN and quantized sims, the
// minTrain boundary, both bootstraps, Workers 1 and 4, and a State /
// RestoreModel round trip with checks still pending.
func TestDeferredCheckOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	var atOnce, deferred int
	for trial := 0; trial < 120; trial++ {
		tc := randomOracleCase(rng, rng.Intn(15))
		tc.cfg.Unbalanced = trial%2 == 1
		tc.cfg.Workers = []int{1, 4}[trial/2%2]
		stream := tc.examples
		if trial%3 == 0 && len(stream) > 1 {
			// A single-class prefix: the first committees see one label.
			for i := range stream[:len(stream)/2] {
				stream[i].Label = stream[0].Label
			}
		}
		for i := range stream {
			for f := range stream[i].Cats {
				if rng.Intn(6) == 0 {
					// Fresh values sorting first, last or in between.
					stream[i].Cats[f] = fmt.Sprintf("%c%d", "!~b"[rng.Intn(3)], rng.Intn(40))
				}
			}
		}
		minTrain := 1 + rng.Intn(6)
		m := NewModel(tc.cfg, minTrain)
		om := newOracleModel(tc.cfg, minTrain)
		type open struct {
			c    Check
			want bool
			at   int
		}
		var pending []open
		scoreSome := func(p float64) {
			kept := pending[:0]
			for _, o := range pending {
				if rng.Float64() >= p {
					kept = append(kept, o)
					continue
				}
				if got := m.Score(&o.c); got != o.want {
					t.Fatalf("trial %d: check of example %d scored %v, eager %v", trial, o.at, got, o.want)
				}
				if o.c.pending || m.Score(&o.c) != o.want {
					t.Fatalf("trial %d: check of example %d not memoized", trial, o.at)
				}
			}
			pending = kept
		}
		restoreAt := rng.Intn(len(stream) + 1)
		for i, ex := range stream {
			if i == restoreAt {
				var err error
				if m, err = RestoreModel(m.State()); err != nil {
					t.Fatalf("trial %d: restore: %v", trial, err)
				}
			}
			if rng.Intn(4) == 0 {
				q := tc.queries[rng.Intn(len(tc.queries))]
				gl, gv, gok := m.Predict(q.Cats, q.Sim)
				wl, wv, wok := om.Predict(q.Cats, q.Sim)
				if gok != wok {
					t.Fatalf("trial %d, example %d: ready %v, oracle %v", trial, i, gok, wok)
				}
				sameVotes(t, fmt.Sprintf("trial %d, query before example %d", trial, i), gl, gv, wl, wv)
			}
			wasFresh := m.Ready() && !m.NeedsRetrain()
			var want, ready bool
			if ready = om.Ready(); ready {
				label, _, _ := om.Predict(ex.Cats, ex.Sim)
				want = label == ex.Label
			}
			om.Add(ex)
			c, ok := m.AddChecked(ex)
			if ok != ready {
				t.Fatalf("trial %d, example %d (minTrain %d): check %v, oracle ready %v", trial, i, minTrain, ok, ready)
			}
			if m.retrains != om.retrains {
				t.Fatalf("trial %d, example %d: retrains %d, oracle %d", trial, i, m.retrains, om.retrains)
			}
			if !ok {
				continue
			}
			if c.pending == wasFresh {
				t.Fatalf("trial %d, example %d: pending %v with a fresh committee %v", trial, i, c.pending, wasFresh)
			}
			if c.pending {
				deferred++
			} else {
				atOnce++
			}
			pending = append(pending, open{c: c, want: want, at: i})
			scoreSome(0.15)
		}
		scoreSome(1)
		if m.retrains != om.retrains || m.Len() != len(om.examples) {
			t.Fatalf("trial %d: len %d retrains %d, oracle %d %d", trial, m.Len(), m.retrains, len(om.examples), om.retrains)
		}
	}
	if atOnce < 100 || deferred < 1000 {
		t.Fatalf("%d checks scored at once and %d deferred; the streams miss a path", atOnce, deferred)
	}
}
