package cfd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gdr/internal/relation"
)

// figure1 builds an instance in the spirit of Figure 1 of the paper: the
// Customer relation, the rules φ1–φ5, and tuples exhibiting the violations
// the running example discusses.
func figure1(t testing.TB) (*relation.DB, []*CFD) {
	schema := relation.MustSchema("Customer", []string{"Name", "SRC", "STR", "CT", "STT", "ZIP"})
	db := relation.NewDB(schema)
	rows := []relation.Tuple{
		{"Alice", "H1", "Redwood Dr", "Michigan City", "IN", "46360"}, // t0 clean
		{"Bob", "H2", "Oak St", "Westville", "IN", "46360"},           // t1 violates phi1.1
		{"Carol", "H2", "Pine Ave", "Westvile", "IN", "46360"},        // t2 violates phi1.1
		{"Dave", "H2", "Main St", "Michigan Cty", "IN", "46360"},      // t3 violates phi1.1
		{"Eve", "H1", "Sherden RD", "Fort Wayne", "IN", "46391"},      // t4 violates phi4.1 and phi5
		{"Frank", "H1", "Sherden RD", "Fort Wayne", "IN", "46825"},    // t5 violates phi5
		{"Grace", "H3", "Canal Rd", "New Haven", "OH", "46774"},       // t6 violates phi2.2
		{"Heidi", "H3", "Sherden RD", "Fort Wayne", "IN", "46835"},    // t7 violates phi5
	}
	for _, r := range rows {
		db.MustInsert(r)
	}
	rules := MustParse(`
phi1: ZIP -> CT, STT :: 46360 || Michigan City, IN
phi2: ZIP -> CT, STT :: 46774 || New Haven, IN
phi3: ZIP -> CT, STT :: 46825 || Fort Wayne, IN
phi4: ZIP -> CT, STT :: 46391 || Westville, IN
phi5: STR, CT -> ZIP :: _, Fort Wayne || _
`)
	return db, rules
}

func TestEngineFigure1Counts(t *testing.T) {
	db, rules := figure1(t)
	e, err := NewEngine(db, rules)
	if err != nil {
		t.Fatal(err)
	}

	// Sat is context-scoped: |D ⊨ φ| counts only tuples matching tp[X].
	want := map[string]struct{ vio, sat, ctx int }{
		"phi1.1": {3, 1, 4}, // t1,t2,t3 have wrong CT for ZIP 46360
		"phi1.2": {0, 4, 4},
		"phi2.1": {0, 1, 1},
		"phi2.2": {1, 0, 1}, // t6 STT=OH
		"phi3.1": {0, 1, 1},
		"phi3.2": {0, 1, 1},
		"phi4.1": {1, 0, 1}, // t4 CT=Fort Wayne
		"phi4.2": {0, 1, 1},
		// t4,t5,t7 share (Sherden RD, Fort Wayne) with three distinct zips:
		// pairwise violations = 3*2 = 6, all three tuples violate.
		"phi5": {6, 0, 3},
	}
	for id, w := range want {
		ri := e.RuleIndex(id)
		if ri < 0 {
			t.Fatalf("rule %s not found", id)
		}
		if got := e.Vio(ri); got != w.vio {
			t.Errorf("%s: Vio = %d, want %d", id, got, w.vio)
		}
		if got := e.Sat(ri); got != w.sat {
			t.Errorf("%s: Sat = %d, want %d", id, got, w.sat)
		}
		if got := e.Context(ri); got != w.ctx {
			t.Errorf("%s: Context = %d, want %d", id, got, w.ctx)
		}
	}
	if got := e.VioTotal(); got != 11 {
		t.Errorf("VioTotal = %d, want 11", got)
	}
	if got := e.Dirty(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("Dirty = %v", got)
	}
}

func TestEngineVioRuleListAndTupleVio(t *testing.T) {
	db, rules := figure1(t)
	e, err := NewEngine(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(ris []int) []string {
		out := make([]string, len(ris))
		for i, ri := range ris {
			out[i] = e.Rules()[ri].ID
		}
		return out
	}
	if got := ids(e.VioRuleList(4)); !reflect.DeepEqual(got, []string{"phi4.1", "phi5"}) {
		t.Errorf("vioRuleList(t4) = %v", got)
	}
	if got := ids(e.VioRuleList(0)); len(got) != 0 {
		t.Errorf("vioRuleList(t0) = %v, want empty", got)
	}
	phi5 := e.RuleIndex("phi5")
	if got := e.TupleVio(phi5, 4); got != 2 {
		t.Errorf("TupleVio(phi5, t4) = %d, want 2", got)
	}
	if got := e.TupleVio(e.RuleIndex("phi4.1"), 4); got != 1 {
		t.Errorf("TupleVio(phi4.1, t4) = %d, want 1", got)
	}
	if got := e.TupleVio(phi5, 0); got != 0 {
		t.Errorf("TupleVio(phi5, t0) = %d, want 0", got)
	}
	if got := e.ViolatingPartners(phi5, 4); !reflect.DeepEqual(got, []int{5, 7}) {
		t.Errorf("ViolatingPartners(phi5, t4) = %v", got)
	}
	if got := e.BucketMembers(phi5, 4); !reflect.DeepEqual(got, []int{4, 5, 7}) {
		t.Errorf("BucketMembers(phi5, t4) = %v", got)
	}
}

func TestEngineApplyCascade(t *testing.T) {
	db, rules := figure1(t)
	e, err := NewEngine(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	phi5 := e.RuleIndex("phi5")

	// Repair t4's zip: leaves phi4.1 context, satisfies phi3, still in the
	// phi5 bucket which keeps two distinct zips (46825 x2, 46835). The
	// bucket stays mixed, so only t4 itself is reported.
	affected := e.Apply(4, "ZIP", "46825")
	if !reflect.DeepEqual(affected, []int{4}) {
		t.Fatalf("affected = %v", affected)
	}
	if e.Vio(e.RuleIndex("phi4.1")) != 0 {
		t.Error("phi4.1 should be satisfied after zip fix")
	}
	if got := e.Vio(phi5); got != 4 {
		t.Errorf("phi5 vio = %d, want 4 (2 pairs x 2 directions)", got)
	}
	if !e.IsDirty(4) || !e.IsDirty(5) || !e.IsDirty(7) {
		t.Error("t4, t5, t7 should still be dirty via phi5")
	}

	// Repair t7's zip: the bucket becomes uniform, all three go clean.
	affected = e.Apply(7, "ZIP", "46825")
	if !reflect.DeepEqual(affected, []int{4, 5, 7}) {
		t.Fatalf("affected = %v", affected)
	}
	if e.Vio(phi5) != 0 {
		t.Errorf("phi5 vio = %d, want 0", e.Vio(phi5))
	}
	for _, tid := range []int{4, 5, 7} {
		if e.IsDirty(tid) {
			t.Errorf("t%d should be clean", tid)
		}
	}
	if got := e.DirtyCount(); got != 4 {
		t.Errorf("DirtyCount = %d, want 4 (t1,t2,t3,t6)", got)
	}

	// Moving a tuple out of a variable rule's context via an LHS change.
	e.Apply(4, "CT", "Westville") // no longer matches CT=Fort Wayne pattern
	if got := e.Context(phi5); got != 2 {
		t.Errorf("phi5 context = %d, want 2", got)
	}
	// 46825 now disagrees with phi4? t4 has ZIP 46825 so phi4 does not
	// apply; but phi3.1 does: CT=Westville violates it.
	if !e.IsDirty(4) {
		t.Error("t4 should violate phi3.1 after CT change")
	}
}

func TestEngineApplyNoChange(t *testing.T) {
	db, rules := figure1(t)
	e, _ := NewEngine(db, rules)
	before := e.VioTotal()
	aff := e.Apply(0, "CT", "Michigan City")
	if !reflect.DeepEqual(aff, []int{0}) {
		t.Errorf("affected = %v", aff)
	}
	if e.VioTotal() != before {
		t.Error("no-op apply changed counters")
	}
}

func TestEngineVersionBumps(t *testing.T) {
	db, rules := figure1(t)
	e, _ := NewEngine(db, rules)
	phi11 := e.RuleIndex("phi1.1")
	phi5 := e.RuleIndex("phi5")
	v11, v5 := e.Version(phi11), e.Version(phi5)
	e.Apply(1, "CT", "Michigan City")
	if e.Version(phi11) == v11 {
		t.Error("phi1.1 version should change after CT edit")
	}
	if e.Version(phi5) == v5 {
		t.Error("phi5 version should change after CT edit (CT in its LHS)")
	}
	vz := e.Version(e.RuleIndex("phi2.1"))
	e.Apply(1, "Name", "Robert")
	if e.Version(e.RuleIndex("phi2.1")) != vz {
		t.Error("rule version changed for unrelated attribute")
	}
}

func TestRulesInvolving(t *testing.T) {
	db, rules := figure1(t)
	e, _ := NewEngine(db, rules)
	if got := e.RulesInvolving("Name"); len(got) != 0 {
		t.Errorf("RulesInvolving(Name) = %v", got)
	}
	// ZIP appears in all 8 constant rules (LHS) and phi5 (RHS).
	if got := e.RulesInvolving("ZIP"); len(got) != 9 {
		t.Errorf("RulesInvolving(ZIP) = %d rules, want 9", len(got))
	}
	if got := e.RulesInvolving("NoSuchAttr"); got != nil {
		t.Errorf("RulesInvolving(NoSuchAttr) = %v", got)
	}
}

func TestNewEngineRejectsBadRules(t *testing.T) {
	db, _ := figure1(t)
	bad := MustParse("r: Missing -> CT :: _ || _")
	if _, err := NewEngine(db, bad); err == nil {
		t.Fatal("want error for rule over unknown attribute")
	}
	dup := MustParse("same: ZIP -> CT :: _ || _\nsame: ZIP -> STT :: _ || _")
	dup[1].ID = dup[0].ID
	if _, err := NewEngine(db, dup); err == nil {
		t.Fatal("want error for duplicate rule ids")
	}
}

// randomInstance builds a random instance + rule set for property testing.
func randomInstance(r *rand.Rand, n int) (*relation.DB, []*CFD) {
	schema := relation.MustSchema("R", []string{"A", "B", "C", "D"})
	db := relation.NewDB(schema)
	vals := []string{"x", "y", "z", "w"}
	pick := func() string { return vals[r.Intn(len(vals))] }
	for i := 0; i < n; i++ {
		db.MustInsert(relation.Tuple{pick(), pick(), pick(), pick()})
	}
	rules := []*CFD{
		MustNew("c1", []string{"A"}, "B", map[string]string{"A": "x", "B": "y"}),
		MustNew("c2", []string{"A", "C"}, "D", map[string]string{"A": "y", "C": "z", "D": "w"}),
		MustNew("v1", []string{"A"}, "C", map[string]string{"A": Wildcard, "C": Wildcard}),
		MustNew("v2", []string{"B", "D"}, "A", map[string]string{"B": "y", "D": Wildcard, "A": Wildcard}),
	}
	return db, rules
}

// recount verifies every engine counter against a freshly built engine.
func recount(t *testing.T, e *Engine, step int) {
	t.Helper()
	fresh, err := NewEngine(e.DB().Clone(), e.Rules())
	if err != nil {
		t.Fatal(err)
	}
	for ri := range e.Rules() {
		if e.Vio(ri) != fresh.Vio(ri) {
			t.Fatalf("step %d rule %s: incremental Vio %d != recount %d", step, e.Rules()[ri].ID, e.Vio(ri), fresh.Vio(ri))
		}
		if e.Sat(ri) != fresh.Sat(ri) {
			t.Fatalf("step %d rule %s: incremental Sat %d != recount %d", step, e.Rules()[ri].ID, e.Sat(ri), fresh.Sat(ri))
		}
		if e.Context(ri) != fresh.Context(ri) {
			t.Fatalf("step %d rule %s: incremental Context %d != recount %d", step, e.Rules()[ri].ID, e.Context(ri), fresh.Context(ri))
		}
	}
	if !reflect.DeepEqual(e.Dirty(), fresh.Dirty()) {
		t.Fatalf("step %d: dirty set %v != recount %v", step, e.Dirty(), fresh.Dirty())
	}
}

func TestEngineIncrementalMatchesRecount(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		db, rules := randomInstance(r, 30)
		e, err := NewEngine(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		attrs := db.Schema.Attrs
		vals := []string{"x", "y", "z", "w"}
		for step := 0; step < 40; step++ {
			tid := r.Intn(db.N())
			attr := attrs[r.Intn(len(attrs))]
			e.Apply(tid, attr, vals[r.Intn(len(vals))])
			if step%8 == 0 {
				recount(t, e, step)
			}
		}
		recount(t, e, 40)
	}
}

func TestWhatIfMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		db, rules := randomInstance(r, 25)
		e, err := NewEngine(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		attrs := db.Schema.Attrs
		vals := []string{"x", "y", "z", "w"}
		for step := 0; step < 60; step++ {
			tid := r.Intn(db.N())
			attr := attrs[r.Intn(len(attrs))]
			val := vals[r.Intn(len(vals))]
			switch r.Intn(8) {
			case 0: // the cell's current value: no change at all
				val = db.Get(tid, attr)
			case 1: // a value the dictionary has never seen (FreshVID)
				val = fmt.Sprintf("fresh-%d-%d", trial, step)
			}

			predicted := e.WhatIf(tid, attr, val)
			checkAppendWhatIf(t, e, tid, attr, val, predicted)

			clone := db.Clone()
			clone.Set(tid, attr, val)
			fresh, err := NewEngine(clone, rules)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range predicted {
				if got := fresh.Vio(d.Rule); got != d.Vio {
					t.Fatalf("trial %d step %d: WhatIf(%d,%s,%s) rule %s Vio=%d, actual %d",
						trial, step, tid, attr, val, rules[d.Rule].ID, d.Vio, got)
				}
				if got := fresh.Sat(d.Rule); got != d.Sat {
					t.Fatalf("trial %d step %d: WhatIf(%d,%s,%s) rule %s Sat=%d, actual %d",
						trial, step, tid, attr, val, rules[d.Rule].ID, d.Sat, got)
				}
			}
			// WhatIf must not have mutated anything.
			recount(t, e, step)
			// Occasionally actually apply to move to a new state.
			if step%3 == 0 {
				e.Apply(tid, attr, val)
			}
		}
	}
}

// checkAppendWhatIf checks AppendWhatIfVID against WhatIf's full list for
// the same update: it must return, in order, exactly the entries of the
// rules whose context holds the tuple before or after the update (none when
// the value does not change), and every entry it omits must be the rule's
// current (Vio, Sat). Context membership is decided on strings by
// CFD.MatchLHS, independently of the engine's VID matching.
func checkAppendWhatIf(t *testing.T, e *Engine, tid int, attr, val string, full []RuleDelta) {
	t.Helper()
	schema := e.DB().Schema
	ai := schema.MustIndex(attr)
	before := e.DB().Tuple(tid)
	after := append(relation.Tuple(nil), before...)
	after[ai] = val
	var want []RuleDelta
	for _, d := range full {
		rule := e.Rules()[d.Rule]
		if val != before[ai] && (rule.MatchLHS(schema, before) || rule.MatchLHS(schema, after)) {
			want = append(want, d)
		} else if cur := (RuleDelta{Rule: d.Rule, Vio: e.Vio(d.Rule), Sat: e.Sat(d.Rule)}); d != cur {
			t.Fatalf("WhatIf(%d,%s,%s) moves rule %s outside the tuple's context: %+v, current %+v",
				tid, attr, val, rule.ID, d, cur)
		}
	}
	got := e.AppendWhatIfVID(nil, tid, ai, e.lookupVID(ai, val))
	if !slices.Equal(got, want) {
		t.Fatalf("AppendWhatIfVID(%d,%s,%s) = %+v, want the in-context WhatIf entries %+v",
			tid, attr, val, got, want)
	}
	// Appending keeps dst's prefix.
	prefix := []RuleDelta{{Rule: -1}}
	if got := e.AppendWhatIfVID(prefix, tid, ai, e.lookupVID(ai, val)); !slices.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendWhatIfVID(%d,%s,%s) with a prefix = %+v", tid, attr, val, got)
	}
}

func TestWhatIfCoversInvolvedRulesOnly(t *testing.T) {
	db, rules := figure1(t)
	e, _ := NewEngine(db, rules)
	deltas := e.WhatIf(1, "CT", "Michigan City")
	want := len(e.RulesInvolving("CT"))
	if len(deltas) != want {
		t.Fatalf("WhatIf returned %d deltas, want %d", len(deltas), want)
	}
	for _, d := range deltas {
		if !rules[d.Rule].Involves("CT") {
			t.Errorf("delta for rule %s which does not involve CT", rules[d.Rule].ID)
		}
	}
}

func BenchmarkEngineBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	db, rules := randomInstance(r, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(db.Clone(), rules); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineApply(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	db, rules := randomInstance(r, 5000)
	e, err := NewEngine(db, rules)
	if err != nil {
		b.Fatal(err)
	}
	vals := []string{"x", "y", "z", "w"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(i%db.N(), "C", vals[i%len(vals)])
	}
}

func BenchmarkEngineWhatIf(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	db, rules := randomInstance(r, 5000)
	e, err := NewEngine(db, rules)
	if err != nil {
		b.Fatal(err)
	}
	vals := []string{"x", "y", "z", "w"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.WhatIf(i%db.N(), "C", vals[i%len(vals)])
	}
}

func ExampleEngine() {
	schema := relation.MustSchema("Customer", []string{"CT", "ZIP"})
	db := relation.NewDB(schema)
	db.MustInsert(relation.Tuple{"Westville", "46360"})
	db.MustInsert(relation.Tuple{"Michigan City", "46360"})
	rules := MustParse("phi: ZIP -> CT :: 46360 || Michigan City")
	e, _ := NewEngine(db, rules)
	fmt.Println("dirty:", e.Dirty(), "vio:", e.Vio(0))
	e.Apply(0, "CT", "Michigan City")
	fmt.Println("dirty:", e.Dirty(), "vio:", e.Vio(0))
	// Output:
	// dirty: [0] vio: 1
	// dirty: [] vio: 0
}

func TestEngineInsert(t *testing.T) {
	db, rules := figure1(t)
	e, err := NewEngine(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	// A clean insert: consistent Michigan City tuple.
	tid, affected, err := e.Insert(relation.Tuple{"Ivan", "H1", "Redwood Dr", "Michigan City", "IN", "46360"})
	if err != nil {
		t.Fatal(err)
	}
	if tid != 8 || e.IsDirty(tid) {
		t.Fatalf("clean insert: tid=%d dirty=%v", tid, e.IsDirty(tid))
	}
	if !reflect.DeepEqual(affected, []int{8}) {
		t.Fatalf("affected = %v", affected)
	}
	recount(t, e, -1)

	// A dirty insert violating phi1.1 (wrong city for 46360).
	tid, _, err = e.Insert(relation.Tuple{"Judy", "H2", "Oak St", "Gary", "IN", "46360"})
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsDirty(tid) {
		t.Fatal("dirty insert not flagged")
	}
	recount(t, e, -2)

	// An insert that makes an existing clean tuple dirty: a new zip for
	// t0's street+city bucket under phi5? t0 is not Fort Wayne, so instead
	// extend the Sherden RD bucket with a fourth distinct zip.
	before := e.Vio(e.RuleIndex("phi5"))
	_, affected, err = e.Insert(relation.Tuple{"Kim", "H1", "Sherden RD", "Fort Wayne", "IN", "46000"})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Vio(e.RuleIndex("phi5")); got <= before {
		t.Fatalf("phi5 vio %d not increased from %d", got, before)
	}
	recount(t, e, -3)
	_ = affected

	// Arity errors are reported.
	if _, _, err := e.Insert(relation.Tuple{"too", "short"}); err == nil {
		t.Fatal("want arity error")
	}
}

func TestWouldViolateMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 12; trial++ {
		db, rules := randomInstance(r, 25)
		e, err := NewEngine(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		attrs := db.Schema.Attrs
		vals := []string{"x", "y", "z", "w"}
		for step := 0; step < 60; step++ {
			tid := r.Intn(db.N())
			attr := attrs[r.Intn(len(attrs))]
			val := vals[r.Intn(len(vals))]
			for ri := range rules {
				if !rules[ri].Involves(attr) {
					continue
				}
				predicted := e.WouldViolate(ri, tid, attr, val)
				clone := db.Clone()
				clone.Set(tid, attr, val)
				fresh, err := NewEngine(clone, rules)
				if err != nil {
					t.Fatal(err)
				}
				if got := fresh.Violates(ri, tid); got != predicted {
					t.Fatalf("trial %d step %d: WouldViolate(%s, t%d, %s=%s) = %v, actual %v",
						trial, step, rules[ri].ID, tid, attr, val, predicted, got)
				}
			}
			if step%3 == 0 {
				e.Apply(tid, attr, val)
			}
		}
	}
}

func TestInBucketMajority(t *testing.T) {
	db, rules := figure1(t)
	e, _ := NewEngine(db, rules)
	phi5 := e.RuleIndex("phi5")
	// The Sherden RD bucket holds three distinct zips: nobody is a strict
	// majority.
	for _, tid := range []int{4, 5, 7} {
		if e.InBucketMajority(phi5, tid) {
			t.Errorf("t%d should not be a bucket majority (3-way split)", tid)
		}
	}
	// Make two of them agree: now those two are the majority, the third not.
	e.Apply(4, "ZIP", "46825")
	if !e.InBucketMajority(phi5, 4) || !e.InBucketMajority(phi5, 5) {
		t.Error("agreeing pair should be the strict majority")
	}
	if e.InBucketMajority(phi5, 7) {
		t.Error("odd one out should not be a majority")
	}
	// Constant rules never report a majority.
	if e.InBucketMajority(e.RuleIndex("phi1.1"), 1) {
		t.Error("constant rule should report no majority")
	}
	// Out-of-context tuples are not majorities either.
	if e.InBucketMajority(phi5, 0) {
		t.Error("out-of-context tuple reported as majority")
	}
}

func BenchmarkEngineInsert(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	db, rules := randomInstance(r, 1000)
	e, err := NewEngine(db, rules)
	if err != nil {
		b.Fatal(err)
	}
	vals := []string{"x", "y", "z", "w"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Insert(relation.Tuple{vals[i%4], vals[(i+1)%4], vals[(i+2)%4], vals[(i+3)%4]}); err != nil {
			b.Fatal(err)
		}
	}
}
