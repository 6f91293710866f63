package learn

import (
	"math"

	"gdr/internal/par"
)

// Config controls forest training. The zero value is usable: it is filled
// with the paper's defaults (k = 10 trees, bootstrap fraction 0.7 so that
// N′ < N, M′ = ⌈√M⌉ features per split).
type Config struct {
	// K is the committee size (number of trees). Default 10.
	K int
	// MaxDepth bounds tree depth. Default 12.
	MaxDepth int
	// MinLeaf is the minimum number of samples required to split. Default 1.
	MinLeaf int
	// SampleFrac is N′/N for bootstrap sampling (with replacement). Default 0.7.
	SampleFrac float64
	// Mtry is the number of features considered per split; 0 means ⌈√M⌉.
	Mtry int
	// Unbalanced disables the class-balanced bootstrap. By default each
	// tree's sample draws equally from every label present: active-learning
	// feedback is heavily skewed toward reject/retain (uncertain updates
	// are disproportionately the wrong ones), and an unbalanced committee
	// grows too shy to confirm anything.
	Unbalanced bool
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds the goroutines used to grow the committee's trees.
	// The k trees are independent — each draws its bootstrap sample and
	// split subsamples from its own Seed-derived RNG — so the trained
	// forest is identical at any worker count. Values below 2 train
	// serially.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.SampleFrac <= 0 || c.SampleFrac > 1 {
		c.SampleFrac = 0.7
	}
	return c
}

// Votes is the committee's vote distribution over the three labels; entries
// sum to 1 for a trained forest.
type Votes [NumLabels]float64

// Top returns the majority label (ties break toward the smaller label index,
// i.e. confirm before reject before retain).
func (v Votes) Top() Label {
	best := Confirm
	for l := Label(1); l < NumLabels; l++ {
		if v[l] > v[best] {
			best = l
		}
	}
	return best
}

// Uncertainty quantifies committee disagreement as the entropy of the vote
// fractions with logarithm base 3 (the paper's example: votes {3,1,1}/5 give
// 0.86 and {1,4,0}/5 give 0.45). It ranges over [0, 1].
func (v Votes) Uncertainty() float64 {
	h := 0.0
	for _, p := range v {
		if p <= 0 {
			continue
		}
		h -= p * math.Log(p) / math.Log(NumLabels)
	}
	return h
}

// Forest is a trained random-forest committee.
type Forest struct {
	trees []tree
	// vals maps query strings to the codes the trees were grown on: the
	// training set's sorted distinct values per feature.
	vals [][]string
}

// Train grows a random forest over the examples. All examples must share the
// same categorical arity (it panics otherwise). Training with no examples
// returns nil.
func Train(examples []Example, cfg Config) *Forest {
	if len(examples) == 0 {
		return nil
	}
	set := newTrainSet(examples)
	return grow(&set, cfg)
}

// grow trains a forest over a non-empty coded training set. The forest
// shares set.vals, so it is valid until the set next changes.
func grow(set *trainSet, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	n := set.len()
	mtry := cfg.Mtry
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(set.nCats() + 1))))
	}
	nSample := int(math.Ceil(cfg.SampleFrac * float64(n)))
	if nSample < 1 {
		nSample = 1
	}
	tc := treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, mtry: mtry, nSample: nSample}

	g := getGrower()
	defer putGrower(g)
	in := g.prepare(set, tc, cfg.Unbalanced)
	// Derive one seed per tree up front from the configured seed: each tree's
	// bootstrap and split draws come from its own RNG, so the committee is
	// reproducible for a given Seed regardless of Workers or the order the
	// trees finish growing in.
	g.rng.Seed(cfg.Seed)
	g.seeds = g.seeds[:0]
	for k := 0; k < cfg.K; k++ {
		g.seeds = append(g.seeds, g.rng.Int63())
	}
	seeds := g.seeds
	f := &Forest{vals: set.vals, trees: make([]tree, cfg.K)}
	par.ForEach(par.Workers(cfg.Workers), cfg.K, func(k int) error {
		tg := getGrower()
		f.trees[k] = tg.growTree(in, seeds[k])
		putGrower(tg)
		return nil
	})
	return f
}

// maxMemoCats bounds the arity whose query codes Predict memoizes on the
// stack; wider feature vectors pay one allocation per call.
const maxMemoCats = 64

// Predict classifies a feature vector: each committee member votes and the
// majority label wins. It panics if cats does not match the training arity.
func (f *Forest) Predict(cats []string, sim float64) (Label, Votes) {
	if len(cats) != len(f.vals) {
		panic("learn: feature arity mismatch")
	}
	var buf [maxMemoCats]int32
	var codes []int32
	if len(cats) <= maxMemoCats {
		codes = buf[:len(cats)]
	} else {
		codes = make([]int32, len(cats))
	}
	for i := range codes {
		codes[i] = unresolved
	}
	return f.vote(&codeMemo{vals: f.vals, cats: cats, codes: codes}, sim)
}

// vote polls the committee on a query whose codes memo resolves.
func (f *Forest) vote(memo *codeMemo, sim float64) (Label, Votes) {
	var v Votes
	for k := range f.trees {
		v[f.trees[k].classify(memo, sim)] += 1
	}
	for i := range v {
		v[i] /= float64(len(f.trees))
	}
	return v.Top(), v
}

// K returns the committee size.
func (f *Forest) K() int { return len(f.trees) }

// Model is the per-attribute learner M_Ai of Section 4.2: it accumulates
// training examples from user feedback and retrains its forest lazily.
type Model struct {
	cfg      Config
	minTrain int
	set      trainSet
	forest   *Forest
	stale    bool
	retrains int64
}

// NewModel creates an empty model; minTrain is the minimum number of labeled
// examples before the model makes predictions (values < 1 default to 3).
func NewModel(cfg Config, minTrain int) *Model {
	if minTrain < 1 {
		minTrain = 3
	}
	return &Model{cfg: cfg, minTrain: minTrain, stale: true}
}

// Add appends a training example (the user's feedback on one update). The
// example is interned into the model's codes; ex.Cats is not retained. The
// first example fixes the categorical arity: Add panics with "learn: feature
// arity mismatch" if a later example's differs.
func (m *Model) Add(ex Example) {
	m.set.add(ex)
	m.stale = true
}

// Len returns the number of accumulated training examples.
func (m *Model) Len() int { return m.set.len() }

// Gen returns a counter that changes whenever the model's training set
// (and therefore its predictions) may have changed; caches key on it.
func (m *Model) Gen() int64 { return int64(m.set.len()) }

// Ready reports whether the model has enough feedback to predict.
func (m *Model) Ready() bool { return m.set.len() >= m.minTrain }

// NeedsRetrain reports whether the next Predict will grow a fresh forest —
// the committee-retrain event observability layers want to time without
// reaching into the lazy-training internals.
func (m *Model) NeedsRetrain() bool {
	return m.Ready() && (m.stale || m.forest == nil)
}

// Predict classifies a feature vector, retraining first if new examples
// arrived. ok is false while the model is not Ready; callers should treat
// such updates as maximally uncertain.
func (m *Model) Predict(cats []string, sim float64) (label Label, votes Votes, ok bool) {
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
func (m *Model) train() {
	m.forest = grow(&m.set, m.trainConfig(m.set.len(), m.retrains))
	m.stale = false
}

// trainConfig is the forest configuration of the committee grown over n
// examples at retrain count retrains. The seed varies across retrains
// (deterministically) so the committee is re-drawn as the training set
// evolves; because it is a pure function of (Config.Seed, the examples,
// retrains), a model restored from a snapshot retrains to the
// byte-identical committee (see RestoreModel), and a pending Check grows
// the committee its skipped retrain would have grown.
func (m *Model) trainConfig(n int, retrains int64) Config {
	cfg := m.cfg
	cfg.Seed = cfg.Seed*31 + int64(n) + retrains
	return cfg
}
