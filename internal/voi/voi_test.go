package voi

import (
	"math"
	"math/rand"
	"testing"

	"gdr/internal/cfd"
	"gdr/internal/group"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// workedExample reproduces the Section 4.1 example: eight tuples, the rules
// φ1–φ5 with weights {4/8, 1/8, 2/8, 1/8, 3/8} (arising from their context
// sizes), and a group of three updates setting CT to "Michigan City" with
// p̃ = {0.9, 0.6, 0.6}. The paper computes E[g(c)] = 1.05.
func workedExample(t testing.TB) (*cfd.Engine, *group.Group, Prob) {
	t.Helper()
	schema := relation.MustSchema("Customer", []string{"Name", "STR", "CT", "STT", "ZIP"})
	db := relation.NewDB(schema)
	rows := []relation.Tuple{
		// Four tuples in φ1's context (ZIP 46360), all with a wrong CT so
		// vio(D,{φ1.1}) = 4 like the example's "4−3" numerator implies.
		{"t1", "Oak St", "Westville", "IN", "46360"},
		{"t2", "Pine Ave", "Westvile", "IN", "46360"},
		{"t3", "Main St", "Michigan Cty", "IN", "46360"},
		{"t4", "Elm St", "Mich City", "IN", "46360"},
		// One tuple for φ2's context, two for φ3's, one for φ4's; the three
		// CT="Fort Wayne" tuples form φ5's context (all clean for φ5).
		{"t5", "Canal Rd", "New Haven", "IN", "46774"},
		{"t6", "Sherden RD", "Fort Wayne", "IN", "46825"},
		{"t7", "Harris Rd", "Fort Wayne", "IN", "46825"},
		{"t8", "Lima Rd", "Fort Wayne", "IN", "46391"},
	}
	for _, r := range rows {
		db.MustInsert(r)
	}
	rules := cfd.MustParse(`
phi1: ZIP -> CT :: 46360 || Michigan City
phi2: ZIP -> CT :: 46774 || New Haven
phi3: ZIP -> CT :: 46825 || Fort Wayne
phi4: ZIP -> CT :: 46391 || Fort Wayne
phi5: STR, CT -> ZIP :: _, Fort Wayne || _
`)
	e, err := cfd.NewEngine(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	g := &group.Group{
		Key: group.Key{Attr: "CT", Value: "Michigan City"},
		Updates: []repair.Update{
			{Tid: 0, Attr: "CT", Value: "Michigan City", Score: 0.9},
			{Tid: 1, Attr: "CT", Value: "Michigan City", Score: 0.6},
			{Tid: 2, Attr: "CT", Value: "Michigan City", Score: 0.6},
		},
	}
	return e, g, ScoreProb
}

func TestWeightsMatchPaperExample(t *testing.T) {
	e, _, _ := workedExample(t)
	r := NewRanker(e)
	want := map[string]float64{
		"phi1": 4.0 / 8, "phi2": 1.0 / 8, "phi3": 2.0 / 8, "phi4": 1.0 / 8, "phi5": 3.0 / 8,
	}
	for id, w := range want {
		ri := e.RuleIndex(id)
		if ri < 0 {
			t.Fatalf("rule %s missing", id)
		}
		if got := r.Weight(ri); !almost(got, w) {
			t.Errorf("weight(%s) = %v, want %v", id, got, w)
		}
	}
}

func TestGroupBenefitWorkedExample(t *testing.T) {
	e, g, prob := workedExample(t)
	r := NewRanker(e)
	got := r.GroupBenefit(g, prob)
	// 4/8 × (0.9·(4−3)/1 + 0.6·(4−3)/1 + 0.6·(4−3)/1) = 1.05
	if !almost(got, 1.05) {
		t.Fatalf("E[g(c)] = %v, want 1.05", got)
	}
}

func TestEq6EqualsLossDifference(t *testing.T) {
	// Eq. 6 was derived as E[L(D|c)] − Σ_j [p̃j·E[L(D^rj)] + (1−p̃j)·E[L(D^r̄j)]];
	// both sides are implemented independently, so check the identity.
	e, g, prob := workedExample(t)
	r := NewRanker(e)
	lhs := r.GroupBenefit(g, prob)
	rhs := r.ExpectedLossGiven(g, prob) - r.ExpectedLossAfter(g, prob)
	if !almost(lhs, rhs) {
		t.Fatalf("Eq.6 = %v but loss difference = %v", lhs, rhs)
	}
}

func TestRankOrdersByBenefit(t *testing.T) {
	e, g, prob := workedExample(t)
	r := NewRanker(e)
	// A second, low-benefit group: repairing t8's street to a random value
	// fixes nothing (t8 violates phi4 via CT, not STR).
	weak := &group.Group{
		Key: group.Key{Attr: "STR", Value: "Nowhere Rd"},
		Updates: []repair.Update{
			{Tid: 7, Attr: "STR", Value: "Nowhere Rd", Score: 0.9},
		},
	}
	gs := []*group.Group{weak, g}
	r.Rank(gs, prob)
	if gs[0] != g {
		t.Fatalf("top group = %v, want the Michigan City group", gs[0].Key)
	}
	if gs[0].Benefit <= gs[1].Benefit {
		t.Fatalf("benefits not ordered: %v vs %v", gs[0].Benefit, gs[1].Benefit)
	}
}

// TestRawBenefitTracksApply checks that RawBenefit reads the engine's
// current state: a repair elsewhere in φ1's context moves the benefit of an
// unchanged update to what a fresh ranker computes.
func TestRawBenefitTracksApply(t *testing.T) {
	e, g, _ := workedExample(t)
	r := NewRanker(e)
	u := g.Updates[0]
	before := r.RawBenefit(u)
	if again := r.RawBenefit(u); !almost(before, again) {
		t.Fatalf("re-scoring unchanged state changed the value: %v vs %v", before, again)
	}
	// Fix one of the other violating tuples: vio(D,{φ1}) drops to 3 and the
	// satisfied count rises, so the benefit of u must change.
	e.Apply(3, "CT", "Michigan City")
	after := r.RawBenefit(u)
	fresh := NewRanker(e, WithWeights(weightsOf(r, e)))
	if want := fresh.RawBenefit(u); !almost(after, want) {
		t.Fatalf("benefit after repair %v, fresh ranker says %v", after, want)
	}
	if almost(before, after) {
		t.Fatalf("benefit should have changed after repair (%v)", before)
	}
}

func weightsOf(r *Ranker, e *cfd.Engine) []float64 {
	w := make([]float64, len(e.Rules()))
	for i := range w {
		w[i] = r.Weight(i)
	}
	return w
}

func TestNegativeBenefitForHarmfulUpdate(t *testing.T) {
	e, _, _ := workedExample(t)
	r := NewRanker(e)
	// Corrupting a clean Fort Wayne tuple's CT pushes it out of φ3's
	// satisfied set; the benefit must be negative.
	u := repair.Update{Tid: 5, Attr: "CT", Value: "Garbage", Score: 1}
	if got := r.RawBenefit(u); got >= 0 {
		t.Fatalf("harmful update benefit = %v, want < 0", got)
	}
}

func TestSingletonGroupEqualsRawTimesProb(t *testing.T) {
	e, g, _ := workedExample(t)
	r := NewRanker(e)
	u := g.Updates[1]
	single := &group.Group{Key: g.Key, Updates: []repair.Update{u}}
	got := r.GroupBenefit(single, func(repair.Update) float64 { return 0.25 })
	if want := 0.25 * r.RawBenefit(u); !almost(got, want) {
		t.Fatalf("singleton benefit = %v, want %v", got, want)
	}
}

func TestIdentityOnRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	schema := relation.MustSchema("R", []string{"A", "B", "C"})
	vals := []string{"x", "y", "z", "w"}
	for trial := 0; trial < 20; trial++ {
		db := relation.NewDB(schema)
		for i := 0; i < 30; i++ {
			db.MustInsert(relation.Tuple{vals[r.Intn(4)], vals[r.Intn(4)], vals[r.Intn(4)]})
		}
		rules := []*cfd.CFD{
			cfd.MustNew("c", []string{"A"}, "B", map[string]string{"A": "x", "B": "y"}),
			cfd.MustNew("v", []string{"B"}, "C", map[string]string{"B": cfd.Wildcard, "C": cfd.Wildcard}),
		}
		e, err := cfd.NewEngine(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		rk := NewRanker(e)
		var us []repair.Update
		for i := 0; i < 5; i++ {
			us = append(us, repair.Update{
				Tid: r.Intn(db.N()), Attr: schema.Attrs[r.Intn(3)],
				Value: vals[r.Intn(4)], Score: r.Float64(),
			})
		}
		g := &group.Group{Updates: us}
		lhs := rk.GroupBenefit(g, ScoreProb)
		rhs := rk.ExpectedLossGiven(g, ScoreProb) - rk.ExpectedLossAfter(g, ScoreProb)
		if !almost(lhs, rhs) {
			t.Fatalf("trial %d: Eq.6 %v != loss difference %v", trial, lhs, rhs)
		}
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func BenchmarkGroupBenefit(b *testing.B) {
	e, g, prob := workedExample(b)
	r := NewRanker(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.GroupBenefit(g, prob)
	}
}
