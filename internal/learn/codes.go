package learn

import (
	"cmp"
	"slices"
)

// trainSet is a training set interned into integer codes: per categorical
// feature, the distinct values in sorted order, and each example's value as
// its index (code) in that list. Codes are thus ranked by string, so
// visiting a split's children in code order is visiting them in sorted
// string order, the order that fixes how the trainer consumes its RNG.
// The strings themselves are held once per distinct value, not per example.
type trainSet struct {
	// vals[f] lists feature f's distinct values in ascending string order;
	// a value's code is its index.
	vals [][]string
	// cols[f][i] is example i's code for feature f.
	cols   [][]int32
	sims   []float64
	labels []uint8
}

func (s *trainSet) len() int   { return len(s.sims) }
func (s *trainSet) nCats() int { return len(s.vals) }

// codeOf returns the code of v among a feature's sorted distinct values, or
// -1 if v is not among them.
func codeOf(vals []string, v string) int32 {
	i, ok := slices.BinarySearch(vals, v)
	if !ok {
		return -1
	}
	return int32(i)
}

// newTrainSet interns a whole example list at once (Train, RestoreModel):
// each feature's values are sorted and deduplicated in one pass rather than
// inserted one by one. It panics if the examples' arities differ.
func newTrainSet(examples []Example) trainSet {
	n := len(examples)
	nc := len(examples[0].Cats)
	s := trainSet{
		vals:   make([][]string, nc),
		cols:   make([][]int32, nc),
		sims:   make([]float64, n),
		labels: make([]uint8, n),
	}
	for i, ex := range examples {
		if len(ex.Cats) != nc {
			panic("learn: feature arity mismatch")
		}
		s.sims[i] = ex.Sim
		s.labels[i] = uint8(ex.Label)
	}
	col := make([]string, n)
	for f := 0; f < nc; f++ {
		for i, ex := range examples {
			col[i] = ex.Cats[f]
		}
		slices.Sort(col)
		s.vals[f] = slices.Clone(slices.Compact(col))
		s.cols[f] = make([]int32, n)
		for i, ex := range examples {
			s.cols[f][i] = codeOf(s.vals[f], ex.Cats[f])
		}
	}
	return s
}

// add interns one example (Model.Add). A value new to its feature takes its
// sorted position, and the codes at or above it shift up by one so that
// codes stay ranked by string. The first example fixes the arity; a later
// example of any other arity is a caller bug and panics.
func (s *trainSet) add(ex Example) {
	if s.len() == 0 {
		s.vals = make([][]string, len(ex.Cats))
		s.cols = make([][]int32, len(ex.Cats))
	} else if len(ex.Cats) != s.nCats() {
		panic("learn: feature arity mismatch")
	}
	for f, v := range ex.Cats {
		c, ok := slices.BinarySearch(s.vals[f], v)
		if !ok {
			s.vals[f] = slices.Insert(s.vals[f], c, v)
			for i, old := range s.cols[f] {
				if old >= int32(c) {
					s.cols[f][i] = old + 1
				}
			}
		}
		s.cols[f] = append(s.cols[f], int32(c))
	}
	s.sims = append(s.sims, ex.Sim)
	s.labels = append(s.labels, uint8(ex.Label))
}

// prefix returns a view of the first n examples that shares s's codes and
// value tables. Values that only later examples hold keep their codes but
// no prefix example uses them: codes are ranked by string, so the trainer
// meets the prefix's values in the order a set interned from the prefix
// alone would give them (see Model.Score).
func (s *trainSet) prefix(n int) trainSet {
	p := trainSet{vals: s.vals, cols: make([][]int32, len(s.cols)), sims: s.sims[:n:n], labels: s.labels[:n:n]}
	for f, col := range s.cols {
		p.cols[f] = col[:n:n]
	}
	return p
}

// codesOf returns example i's categorical values as a query memo with
// every code already resolved.
func (s *trainSet) codesOf(i int) *codeMemo {
	codes := make([]int32, len(s.cols))
	for f, col := range s.cols {
		codes[f] = col[i]
	}
	return &codeMemo{vals: s.vals, codes: codes}
}

// examples rebuilds the string form of the training set, in insertion
// order. Each call returns fresh slices.
func (s *trainSet) examples() []Example {
	n, nc := s.len(), s.nCats()
	if n == 0 {
		return nil
	}
	out := make([]Example, n)
	cats := make([]string, n*nc)
	for i := range out {
		ex := cats[i*nc : (i+1)*nc : (i+1)*nc]
		for f := range ex {
			ex[f] = s.vals[f][s.cols[f][i]]
		}
		out[i] = Example{Cats: ex, Sim: s.sims[i], Label: Label(s.labels[i])}
	}
	return out
}

// rankSims ranks the examples by Sim, ascending, into rank: equal values
// share a rank, and all NaNs share the first, as sort.Float64s would place
// them. It returns the number of ranks; order is scratch.
func (s *trainSet) rankSims(rank, order []int32) (nRanks int) {
	for i := range order {
		order[i] = int32(i)
	}
	cmpSim := func(a, b int32) int { return cmp.Compare(s.sims[a], s.sims[b]) }
	slices.SortFunc(order, cmpSim)
	r := int32(-1)
	for j, i := range order {
		if j == 0 || cmpSim(i, order[j-1]) != 0 {
			r++
		}
		rank[i] = r
	}
	return int(r + 1)
}
