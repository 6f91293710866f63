package voi

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gdr/internal/cfd"
	"gdr/internal/dataset"
	"gdr/internal/repair"
)

// fullFold is the Eq. 6 probability-free sum over every rule involving the
// update's attribute (WhatIfVID's full list), the reference RawBenefit's
// in-context sum must reproduce bit for bit.
func fullFold(r *Ranker, u repair.Update) float64 {
	e := r.eng
	ai := e.DB().Schema.MustIndex(u.Attr)
	vid, ok := e.DB().LookupVID(ai, u.Value)
	if !ok {
		vid = cfd.FreshVID
	}
	raw := 0.0
	for _, d := range e.WhatIfVID(u.Tid, ai, vid) {
		sat := d.Sat
		if sat < 1 {
			sat = 1
		}
		raw += r.Weight(d.Rule) * float64(e.Vio(d.Rule)-d.Vio) / float64(sat)
	}
	return raw
}

// TestRawBenefitMatchesFullFold drives hospital and census instances
// through random repairs and, after each one, compares RawBenefit for every
// pending update with the fold over all involved rules by Float64bits.
// RawBenefit skips the rules whose context never holds the tuple; their
// terms are zeros, so the bits must agree.
func TestRawBenefitMatchesFullFold(t *testing.T) {
	workloads := []struct {
		name string
		gen  func(dataset.Config) *dataset.Data
	}{{"hospital", dataset.Hospital}, {"census", dataset.Census}}
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			d := w.gen(dataset.Config{N: 2000, Seed: seed})
			e, err := cfd.NewEngine(d.Dirty.Clone(), d.Rules)
			if err != nil {
				t.Fatal(err)
			}
			g := repair.NewGenerator(e)
			r := NewRanker(e)
			rng := rand.New(rand.NewSource(seed))
			pending := g.SuggestAll()
			compared, nonzero := 0, 0
			for step := 0; step < 30 && len(pending) > 0; step++ {
				// Besides the suggestions, score a value the instance has
				// never seen (FreshVID) and the cell's current value.
				u := pending[rng.Intn(len(pending))]
				extra := []repair.Update{
					{Tid: u.Tid, Attr: u.Attr, Value: "never-seen"},
					{Tid: u.Tid, Attr: u.Attr, Value: e.DB().Get(u.Tid, u.Attr)},
				}
				for _, u := range append(extra, pending...) {
					got, want := r.RawBenefit(u), fullFold(r, u)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d step %d: RawBenefit(%+v) = %v (%#x), full fold %v (%#x)",
							w.name, seed, step, u, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					compared++
					if got != 0 {
						nonzero++
					}
				}
				// Repair one pending cell, to the suggestion or to the
				// truth, and re-suggest for the tuples it affected.
				u = pending[rng.Intn(len(pending))]
				value := u.Value
				if rng.Intn(2) == 0 {
					value = d.Truth.Get(u.Tid, u.Attr)
				}
				affected := g.Apply(u.Tid, u.Attr, value)
				pending = slices.DeleteFunc(pending, func(p repair.Update) bool {
					_, hit := slices.BinarySearch(affected, p.Tid)
					return hit
				})
				pending = append(pending, g.SuggestBatch(affected)...)
			}
			if nonzero == 0 {
				t.Fatalf("%s seed %d: all %d compared benefits are zero", w.name, seed, compared)
			}
		}
	}
}
