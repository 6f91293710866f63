// Package learn is GDR's machine-learning substrate (Section 4.2 of the
// paper): a from-scratch random forest — an ensemble of decision trees acting
// as a committee of classifiers — used to predict user feedback
// (confirm / reject / retain) for suggested updates, plus the
// committee-entropy uncertainty score that drives active-learning ordering.
//
// The paper used WEKA's RandomForest with k = 10 trees; this package
// re-implements the same scheme on the stdlib: bootstrap samples of size
// N′ < N per tree and a random subsample of M′ < M features considered at
// each split (M′ = ⌈√M⌉), with information-gain split selection.
//
// Feature vectors mirror the paper's data representation for a suggested
// update r = ⟨t, Ai, v, s⟩: the original attribute values t[A1..An] and the
// suggested value v are categorical features, and the relationship function
// R(t[Ai], v) (a string similarity) is a numeric feature.
//
// The API speaks strings, but the trainer does not. Each example is interned
// once, when it enters a Model (or a Train call), into per-feature integer
// codes ranked in string order, and is stored only in that form. Trees grow
// by counting-partitioning index ranges into per-depth buffers borrowed from
// a pool, and are stored as flat arrays of their split nodes with integer
// child tables that hold a leaf child's label in place of a node.
// Because codes are ranked by string, the trainer visits a categorical
// split's children in the same sorted-string order as a string-keyed trainer
// would, so every RNG draw lands where it would there and the committee is
// identical to one grown on the strings. Each tree draws from a copy of
// math/rand's Go 1 source that yields the same stream but seeds faster (see
// goSource).
//
// The same ranking lets a Model defer the prequential check of a user
// answer: AddChecked records which committee would have judged it, and
// Score grows that committee later, if the check is ever read, from a
// prefix view of the codes (see Check).
package learn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Label is the class predicted for a suggested update; it mirrors the
// expected user feedback.
type Label int

// The three feedback classes of Section 4.2.
const (
	Confirm Label = iota
	Reject
	Retain
)

// NumLabels is the size of the label alphabet.
const NumLabels = 3

func (l Label) String() string {
	switch l {
	case Confirm:
		return "confirm"
	case Reject:
		return "reject"
	case Retain:
		return "retain"
	default:
		return "unknown"
	}
}

// Example is one training instance ⟨t[A1],…,t[An], v, R(t[Ai],v), F⟩.
type Example struct {
	// Cats holds the categorical features: the original tuple's attribute
	// values followed by the suggested value. Its length must be identical
	// across all examples given to one model.
	Cats []string
	// Sim is the numeric relationship feature R(t[Ai], v).
	Sim float64
	// Label is the observed user feedback.
	Label Label
}

// node is one decision-tree node, 32 bytes, stored in its tree's flat node
// array. Only splits are nodes: internal nodes split on either a categorical
// feature (one child per code) or the numeric similarity feature
// (threshold), and a leaf child is its label, held in the parent's child
// table slot (see leafKid). A tree is a single leaf node only when its root
// cannot split.
type node struct {
	// thresh is the numeric split point: Sim <= thresh descends to
	// kids[lo], anything else (NaN included) to kids[lo+1].
	thresh float64
	// feat is the categorical feature split on, or leafNode / simNode.
	feat  int32
	major int32
	// lo is the offset of the node's children in the tree's child table.
	lo int32
	// For a categorical split, code c's child is kids[lo+c-base] when
	// base <= c < base+span; a -1 there, or a code outside the window,
	// means no training example reached this node with that value.
	base int32
	span int32
}

const (
	leafNode int32 = -1
	simNode  int32 = -2
)

// A child table slot holds one of three things: a node index (>= 0),
// noChild (no training example reached the parent with that code), or a
// leaf's label l as leafKid(l) (<= -2).
const noChild int32 = -1

func leafKid(l Label) int32 { return -2 - int32(l) }

// kidLabel decodes a leaf slot (k <= -2) back to its label.
func kidLabel(k int32) Label { return Label(-2 - k) }

// tree is one committee member: nodes[0] is the root.
type tree struct {
	nodes []node
	kids  []int32
}

// classify walks the tree; a categorical value with no child (unseen in
// training, or absent from this node's sample) falls back to the current
// node's majority label. codes resolves the query's values to codes.
func (t *tree) classify(codes *codeMemo, sim float64) Label {
	n := &t.nodes[0]
	for {
		var child int32
		switch n.feat {
		case leafNode:
			return Label(n.major)
		case simNode:
			k := n.lo
			if !(sim <= n.thresh) {
				k++
			}
			child = t.kids[k]
		default:
			s := codes.get(int(n.feat)) - n.base
			if uint32(s) >= uint32(n.span) {
				return Label(n.major)
			}
			child = t.kids[n.lo+s]
			if child == noChild {
				return Label(n.major)
			}
		}
		if child < 0 {
			return kidLabel(child)
		}
		n = &t.nodes[child]
	}
}

// codeMemo resolves a query's categorical values to training-set codes on
// first use: one Forest.Predict looks each feature up at most once however
// many trees test it.
type codeMemo struct {
	vals  [][]string
	cats  []string
	codes []int32
}

const unresolved = math.MinInt32

func (m *codeMemo) get(f int) int32 {
	c := m.codes[f]
	if c == unresolved {
		c = codeOf(m.vals[f], m.cats[f])
		m.codes[f] = c
	}
	return c
}

// treeConfig bundles the per-tree growth limits.
type treeConfig struct {
	maxDepth int
	minLeaf  int
	mtry     int
	nSample  int
}

func majorityOf(c [NumLabels]int) Label {
	best := Confirm
	for l := Label(1); l < NumLabels; l++ {
		if c[l] > c[best] {
			best = l
		}
	}
	return best
}

// entropy returns the Shannon entropy (nats) of a label distribution. A pure
// distribution returns 0 without a logarithm: the sum would be 0 − 1·log 1,
// which is +0 as well.
func entropy(c [NumLabels]int, n int) float64 {
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, k := range c {
		if k == 0 {
			continue
		}
		if k == n {
			return 0
		}
		p := float64(k) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// minGain is the margin a candidate split's information gain must clear to
// beat the best so far (and zero); it absorbs floating-point noise, so equal
// gains keep the first candidate.
const minGain = 1e-12

// forestInput is what every tree of one forest reads. The grower that
// coordinates a Train prepares it once, in its own scratch; tree growers
// only read it, so the trees can grow concurrently.
type forestInput struct {
	set *trainSet
	cfg treeConfig
	// simRank[i] is example i's Sim rank (see trainSet.rankSims).
	simRank []int32
	nRanks  int
	// classes lists each present label's example indices, in example order;
	// balanced bootstrap samples draw from them in turn.
	classes  [][]int32
	balanced bool
	// tableLen sizes the per-code and per-rank count tables.
	tableLen int
}

// grower is the scratch a tree grows in. Growers live in growerPool, so no
// Model holds scratch and a warm retrain allocates only the trees it
// returns. Every count table is all zeros between uses.
type grower struct {
	src goSource
	rng *rand.Rand

	in *forestInput

	// bufs[d] holds the sample indices of the nodes at depth d; a node
	// owning bufs[d][lo:hi] partitions it into bufs[d+1][lo:hi]. Every
	// range is sorted by Sim rank: the root sample is counting-sorted and
	// every partition is stable.
	bufs   [][]int32
	sample []int32
	// tot[c] and lab[c*NumLabels+l] count a range's samples with code (or
	// rank) c and label l; seen lists the codes touched, so resetting costs
	// the range, not the cardinality.
	tot  []int32
	lab  []int32
	seen []int32
	// perm holds the in-place feature permutation, uniq a range's distinct
	// Sim values.
	perm []int
	uniq []float64

	nodes []node
	kids  []int32

	// Coordinator scratch: the forest input and what it points into.
	forest  forestInput
	seeds   []int64
	byLabel []int32
	classes [NumLabels][]int32
	order   []int32
	simRank []int32
}

var growerPool = sync.Pool{New: func() any {
	g := new(grower)
	g.rng = rand.New(&g.src)
	return g
}}

func getGrower() *grower { return growerPool.Get().(*grower) }

// putGrower returns g to the pool, dropping its references to the caller's
// training set.
func putGrower(g *grower) {
	g.in = nil
	g.forest = forestInput{}
	growerPool.Put(g)
}

// prepare builds the forest input for set in the coordinator's scratch.
func (g *grower) prepare(set *trainSet, cfg treeConfig, unbalanced bool) *forestInput {
	n := set.len()
	// Counting-sort the example indices by label for the balanced bootstrap.
	var start [NumLabels + 1]int32
	for _, l := range set.labels {
		start[l+1]++
	}
	for l := 0; l < NumLabels; l++ {
		start[l+1] += start[l]
	}
	g.byLabel = slices.Grow(g.byLabel[:0], n)[:n]
	next := start
	for i, l := range set.labels {
		g.byLabel[next[l]] = int32(i)
		next[l]++
	}
	nClasses := 0
	for l := 0; l < NumLabels; l++ {
		if start[l+1] > start[l] {
			g.classes[nClasses] = g.byLabel[start[l]:start[l+1]]
			nClasses++
		}
	}
	g.order = slices.Grow(g.order[:0], n)[:n]
	g.simRank = slices.Grow(g.simRank[:0], n)[:n]
	nRanks := set.rankSims(g.simRank, g.order)
	tableLen := nRanks
	for _, vals := range set.vals {
		tableLen = max(tableLen, len(vals))
	}
	g.forest = forestInput{
		set:      set,
		cfg:      cfg,
		simRank:  g.simRank,
		nRanks:   nRanks,
		classes:  g.classes[:nClasses],
		balanced: !unbalanced && nClasses >= 2,
		tableLen: tableLen,
	}
	return &g.forest
}

// buf returns the index buffer for depth d.
func (g *grower) buf(d int) []int32 {
	for len(g.bufs) <= d {
		g.bufs = append(g.bufs, nil)
	}
	if len(g.bufs[d]) < g.in.cfg.nSample {
		g.bufs[d] = make([]int32, g.in.cfg.nSample)
	}
	return g.bufs[d]
}

// growTree draws one tree's bootstrap sample from seed and grows the tree.
// The result owns its memory; the grower's scratch is left for the next
// tree.
func (g *grower) growTree(in *forestInput, seed int64) tree {
	g.in = in
	if len(g.tot) < in.tableLen {
		g.tot = make([]int32, in.tableLen)
		g.lab = make([]int32, in.tableLen*NumLabels)
	}
	g.nodes, g.kids = g.nodes[:0], g.kids[:0]

	g.rng.Seed(seed)
	n := in.cfg.nSample
	g.sample = slices.Grow(g.sample[:0], n)[:n]
	if in.balanced {
		for i := range g.sample {
			class := in.classes[i%len(in.classes)]
			g.sample[i] = class[g.rng.Intn(len(class))]
		}
	} else {
		for i := range g.sample {
			g.sample[i] = int32(g.rng.Intn(in.set.len()))
		}
	}
	// The sample is a multiset, so its order is free: counting-sort it by
	// Sim rank.
	root := g.buf(0)[:n]
	for _, i := range g.sample {
		g.tot[in.simRank[i]]++
	}
	at := int32(0)
	for r, c := range g.tot[:in.nRanks] {
		g.tot[r] = at
		at += c
	}
	for _, i := range g.sample {
		r := in.simRank[i]
		root[g.tot[r]] = i
		g.tot[r]++
	}
	clear(g.tot[:in.nRanks])

	if k := g.build(0, 0, n); k < 0 {
		g.nodes = append(g.nodes, node{feat: leafNode, major: int32(kidLabel(k))})
	}
	return tree{nodes: slices.Clone(g.nodes), kids: slices.Clone(g.kids)}
}

// build grows the subtree over bufs[depth][lo:hi] and returns its child
// table entry: the index of its root node, or leafKid of its label when it
// is a leaf. The order of its RNG draws is what makes committees match a
// trainer on the strings, so it must not change: a feature permutation at
// every internal node, then the children depth-first — categorical ones in
// code (= sorted string) order, numeric ones left before right.
func (g *grower) build(depth, lo, hi int) int32 {
	idx := g.bufs[depth][lo:hi]
	labels := g.in.set.labels
	var counts [NumLabels]int
	for _, i := range idx {
		counts[labels[i]]++
	}
	major := majorityOf(counts)
	total := hi - lo
	pure := false
	for _, k := range counts {
		if k == total {
			pure = true
		}
	}
	if pure || depth >= g.in.cfg.maxDepth || total < 2*g.in.cfg.minLeaf {
		return leafKid(major)
	}

	parentH := entropy(counts, total)
	nCats := g.in.set.nCats()
	feats := g.permute(nCats + 1)
	if len(feats) > g.in.cfg.mtry {
		feats = feats[:g.in.cfg.mtry]
	}
	bestGain, bestFeat, bestThresh := 0.0, -1, 0.0
	for _, f := range feats {
		if f < nCats {
			if gain, ok := g.catGain(idx, f, parentH); ok && gain > bestGain+minGain {
				bestGain, bestFeat = gain, f
			}
		} else if gain, th, ok := g.simGain(idx, counts, parentH, bestGain); ok {
			bestGain, bestFeat, bestThresh = gain, f, th
		}
		// No gain exceeds parentH (child entropies are never negative), so
		// once the best split reaches it no later candidate can win, and
		// evaluating candidates draws nothing from the RNG: stopping here
		// leaves the split and every later draw unchanged.
		if parentH <= bestGain+minGain {
			break
		}
	}
	if bestFeat < 0 || bestGain <= minGain {
		return leafKid(major)
	}
	ni := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{major: int32(major)})
	if bestFeat < nCats {
		g.splitCat(ni, depth, lo, hi, bestFeat)
	} else {
		g.splitSim(ni, depth, lo, hi, bestThresh)
	}
	return ni
}

// permute returns a random permutation of [0, n) drawn exactly as
// rand.Rand.Perm draws it, into reused scratch.
func (g *grower) permute(n int) []int {
	if cap(g.perm) < n {
		g.perm = make([]int, n)
	}
	m := g.perm[:n]
	for i := range m {
		j := g.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// catGain returns the information gain of splitting idx on categorical
// feature f; ok is false when every sample shares one value.
func (g *grower) catGain(idx []int32, f int, parentH float64) (gain float64, ok bool) {
	col, labels := g.in.set.cols[f], g.in.set.labels
	seen := g.seen[:0]
	for _, i := range idx {
		c := col[i]
		if g.tot[c] == 0 {
			seen = append(seen, c)
		}
		g.tot[c]++
		g.lab[int(c)*NumLabels+int(labels[i])]++
	}
	childH := 0.0
	total := len(idx)
	for _, c := range seen {
		var lc [NumLabels]int
		for l := range lc {
			lc[l] = int(g.lab[int(c)*NumLabels+l])
			g.lab[int(c)*NumLabels+l] = 0
		}
		n := int(g.tot[c])
		g.tot[c] = 0
		childH += float64(n) / float64(total) * entropy(lc, n)
	}
	g.seen = seen
	return parentH - childH, len(seen) >= 2
}

// simGain tries up to 8 quantile thresholds over the distinct Sim values of
// idx (midpoints between adjacent distinct values) and returns the best
// whose gain beats bestGain; ok is false if none does. idx is sorted by Sim
// rank, so its distinct values come in order and each threshold's left side
// is a prefix of its non-NaN part: NaNs rank first and never satisfy
// Sim <= th.
func (g *grower) simGain(idx []int32, counts [NumLabels]int, parentH, bestGain float64) (gain, thresh float64, ok bool) {
	sims, labels := g.in.set.sims, g.in.set.labels
	// Deduplicate with != as a sort-then-scan would: every NaN occurrence,
	// even of one example drawn twice, counts as a distinct value.
	uniq := g.uniq[:0]
	for j, i := range idx {
		if j == 0 || sims[i] != sims[idx[j-1]] {
			uniq = append(uniq, sims[i])
		}
	}
	g.uniq = uniq
	mids := len(uniq) - 1
	if mids < 1 {
		return 0, 0, false
	}
	tries := min(mids, 8)
	p := 0
	for p < len(idx) && math.IsNaN(sims[idx[p]]) {
		p++
	}
	total := len(idx)
	var lc [NumLabels]int
	ln := 0
	for t := 0; t < tries; t++ {
		m := t
		if mids > 8 {
			m = t * mids / 8
		}
		th := (uniq[m] + uniq[m+1]) / 2
		for p < len(idx) && sims[idx[p]] <= th {
			lc[labels[idx[p]]]++
			ln++
			p++
		}
		rn := total - ln
		if ln == 0 || rn == 0 {
			continue
		}
		var rc [NumLabels]int
		for l := range rc {
			rc[l] = counts[l] - lc[l]
		}
		childH := float64(ln)/float64(total)*entropy(lc, ln) + float64(rn)/float64(total)*entropy(rc, rn)
		if gain := parentH - childH; gain > bestGain+minGain {
			bestGain, thresh, ok = gain, th, true
		}
	}
	return bestGain, thresh, ok
}

// splitCat turns node ni into a split on categorical feature f: it
// counting-partitions bufs[depth][lo:hi] by code into bufs[depth+1][lo:hi],
// children in ascending code order, and grows each child.
func (g *grower) splitCat(ni int32, depth, lo, hi, f int) {
	idx := g.bufs[depth][lo:hi]
	next := g.buf(depth + 1)
	col := g.in.set.cols[f]
	base, last := col[idx[0]], col[idx[0]]
	for _, i := range idx {
		c := col[i]
		base, last = min(base, c), max(last, c)
		g.tot[c]++
	}
	span := last - base + 1
	kbase := int32(len(g.kids))
	for s := int32(0); s < span; s++ {
		g.kids = append(g.kids, noChild)
	}
	// Until the children exist, a present code's child slot holds the end
	// of its partition (always >= 1), and tot[c] its write cursor. Walking
	// the codes in ascending order lays the partitions out as sorting the
	// present codes would, without the sort.
	at := int32(lo)
	for c := base; c <= last; c++ {
		if n := g.tot[c]; n > 0 {
			g.tot[c] = at
			at += n
			g.kids[kbase+c-base] = at
		}
	}
	for _, i := range idx {
		c := col[i]
		next[g.tot[c]] = i
		g.tot[c]++
	}
	clear(g.tot[base : last+1])
	g.nodes[ni].feat = int32(f)
	g.nodes[ni].lo, g.nodes[ni].base, g.nodes[ni].span = kbase, base, span
	start := lo
	for s := kbase; s < kbase+span; s++ {
		end := g.kids[s]
		if end == noChild {
			continue
		}
		child := g.build(depth+1, start, int(end))
		g.kids[s] = child
		start = int(end)
	}
}

// splitSim turns node ni into a split on the numeric feature at th: Sim <=
// th goes left, everything else right.
func (g *grower) splitSim(ni int32, depth, lo, hi int, th float64) {
	idx := g.bufs[depth][lo:hi]
	next := g.buf(depth + 1)
	sims := g.in.set.sims
	w := lo
	for _, i := range idx {
		if sims[i] <= th {
			next[w] = i
			w++
		}
	}
	mid := w
	for _, i := range idx {
		if !(sims[i] <= th) {
			next[w] = i
			w++
		}
	}
	kbase := int32(len(g.kids))
	g.kids = append(g.kids, noChild, noChild)
	g.nodes[ni].feat, g.nodes[ni].thresh, g.nodes[ni].lo = simNode, th, kbase
	left := g.build(depth+1, lo, mid)
	g.kids[kbase] = left
	right := g.build(depth+1, mid, hi)
	g.kids[kbase+1] = right
}
