// Package voi implements GDR's value-of-information ranking (Section 4.1 of
// the paper). Groups of suggested updates are scored by the estimated data
// quality gain of acquiring user feedback on them:
//
//	E[g(c)] = Σ_{φi∈Σ} wi · Σ_{rj∈c} p̃j · (vio(D,{φi}) − vio(D^rj,{φi})) / |D^rj ⊨ φi|   (Eq. 6)
//
// where p̃j is the learner's (or, before any feedback, the repairing
// algorithm's) probability that rj is correct, vio is the violation count of
// Definition 1, and |D^rj ⊨ φi| counts context tuples satisfying φi after
// hypothetically applying rj. The hypothetical counts come from the
// violation engine's WhatIf, so no database copy is ever made, and only the
// rules whose context holds the updated tuple before or after the update
// are evaluated: every other rule's term is zero.
package voi

import (
	"gdr/internal/cfd"
	"gdr/internal/group"
	"gdr/internal/par"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// Prob supplies p̃j for an update: the probability that the update is
// correct. GDR uses the update's evaluation score before any feedback exists
// and the learned model's confirm probability afterwards.
type Prob func(repair.Update) float64

// ScoreProb is the paper's initial user model: p̃j = sj, the update
// evaluation score assigned by the repairing algorithm.
func ScoreProb(u repair.Update) float64 { return u.Score }

// Ranker scores update groups with Eq. 6. Scoring is a pure read of the
// engine and the rule weights, so RawBenefit and GroupBenefit may be called
// from multiple goroutines as long as the engine is not mutated
// concurrently.
type Ranker struct {
	eng     *cfd.Engine
	db      *relation.DB
	weights []float64
}

// scoreBufLen sizes RawBenefit's stack buffer of rule deltas. Only a few
// rules hold any one tuple in their context, so the buffer spills to the
// heap only on pathological rule sets.
const scoreBufLen = 32

// Option configures a Ranker.
type Option func(*Ranker)

// WithWeights overrides the rule weights wi (indexed like Engine.Rules).
func WithWeights(w []float64) Option {
	return func(r *Ranker) { r.weights = append([]float64(nil), w...) }
}

// NewRanker builds a ranker over the engine. Unless overridden, rule weights
// follow the paper's experimental choice wi = |D(φi)|/|D|, computed on the
// instance at construction time.
func NewRanker(eng *cfd.Engine, opts ...Option) *Ranker {
	r := &Ranker{eng: eng, db: eng.DB()}
	for _, o := range opts {
		o(r)
	}
	if r.weights == nil {
		n := eng.DB().N()
		r.weights = make([]float64, len(eng.Rules()))
		for ri := range eng.Rules() {
			if n > 0 {
				r.weights[ri] = float64(eng.Context(ri)) / float64(n)
			}
		}
	}
	return r
}

// Weight returns wi for rule ri.
func (r *Ranker) Weight(ri int) float64 { return r.weights[ri] }

// RawBenefit computes the probability-free part of Eq. 6 for one update:
//
//	Σ_{φi} wi · (vio(D,{φi}) − vio(D^rj,{φi})) / |D^rj ⊨ φi|
//
// Only rules involving the update's attribute whose context holds the tuple
// before or after the update are summed (Engine.AppendWhatIfVID). Any other
// rule keeps its violation count, so its term is wi·0/|D ⊨ φi| = ±0.0, and
// adding a zero to a sum that starts at +0.0 never changes its bits while
// wi is finite: skipping those rules leaves every benefit bit-identical to
// the sum over all involved rules. A zero satisfaction count after the
// update is guarded to 1, as the paper's quotient is undefined there (no
// tuple would satisfy the rule either way).
func (r *Ranker) RawBenefit(u repair.Update) float64 {
	ai := r.db.Schema.MustIndex(u.Attr)
	vid, known := r.db.LookupVID(ai, u.Value)
	if !known {
		// Possible only for caller-synthesized updates (the generator only
		// proposes interned values). Interning here would mutate the
		// dictionary under concurrent read-only scoring.
		vid = cfd.FreshVID
	}
	var buf [scoreBufLen]cfd.RuleDelta
	raw := 0.0
	for _, d := range r.eng.AppendWhatIfVID(buf[:0], u.Tid, ai, vid) {
		raw += r.weights[d.Rule] * float64(r.eng.Vio(d.Rule)-d.Vio) / float64(max(d.Sat, 1))
	}
	return raw
}

// GroupBenefit computes E[g(c)] of Eq. 6 for a group, using prob for p̃j.
func (r *Ranker) GroupBenefit(g *group.Group, prob Prob) float64 {
	total := 0.0
	for _, u := range g.Updates {
		total += prob(u) * r.RawBenefit(u)
	}
	return total
}

// Rank assigns each group its benefit and sorts groups by descending
// benefit (deterministic tie-breaks), implementing step 4 of Procedure 1.
func (r *Ranker) Rank(gs []*group.Group, prob Prob) {
	r.RankParallel(gs, prob, 1)
}

// RankParallel is Rank with the per-group benefit computations fanned out
// over at most workers goroutines.
func (r *Ranker) RankParallel(gs []*group.Group, prob Prob, workers int) {
	r.ScoreGroups(gs, prob, workers)
	group.SortByBenefit(gs)
}

// ScoreGroups computes Eq. 6 benefits for the given groups without sorting
// them — the re-score half of ranking, which the incremental group index
// applies to dirty groups only. Scoring is read-only against the engine, so
// the only requirement for workers > 1 is that prob be safe for concurrent
// calls (a warmed memo, or a pure function
// like ScoreProb). Each group's sum is accumulated in update order, so the
// resulting benefits — and therefore any ranking built from them — are
// bit-identical to the serial path at any worker count.
func (r *Ranker) ScoreGroups(gs []*group.Group, prob Prob, workers int) {
	par.ForEach(par.Workers(workers), len(gs), func(i int) error {
		gs[i].Benefit = r.GroupBenefit(gs[i], prob)
		return nil
	})
}

// ExpectedLossGiven computes E[L(D|c)] of Eq. 5: the expected quality loss
// of the current database given that group c is suggested. It is exposed for
// completeness and for testing the algebraic identity that yields Eq. 6.
func (r *Ranker) ExpectedLossGiven(g *group.Group, prob Prob) float64 {
	total := 0.0
	for _, u := range g.Updates {
		p := prob(u)
		deltas := r.eng.WhatIf(u.Tid, u.Attr, u.Value)
		for _, d := range deltas {
			vio := float64(r.eng.Vio(d.Rule))
			satYes := d.Sat
			if satYes < 1 {
				satYes = 1
			}
			satNo := r.eng.Sat(d.Rule) // D^r̄j is D itself: rejecting changes nothing
			if satNo < 1 {
				satNo = 1
			}
			total += r.weights[d.Rule] * (p*vio/float64(satYes) + (1-p)*vio/float64(satNo))
		}
	}
	return total
}

// ExpectedLossAfter computes Σ_j [ p̃j·E[L(D^rj)] + (1−p̃j)·E[L(D^r̄j)] ]
// restricted, like Eq. 6's derivation, to the rules each update involves.
func (r *Ranker) ExpectedLossAfter(g *group.Group, prob Prob) float64 {
	total := 0.0
	for _, u := range g.Updates {
		p := prob(u)
		deltas := r.eng.WhatIf(u.Tid, u.Attr, u.Value)
		for _, d := range deltas {
			satYes := d.Sat
			if satYes < 1 {
				satYes = 1
			}
			satNo := r.eng.Sat(d.Rule)
			if satNo < 1 {
				satNo = 1
			}
			total += r.weights[d.Rule] * (p*float64(d.Vio)/float64(satYes) +
				(1-p)*float64(r.eng.Vio(d.Rule))/float64(satNo))
		}
	}
	return total
}
