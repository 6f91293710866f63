package cfd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gdr/internal/relation"
)

// refCounts is the engine's observable state recomputed from strings alone:
// context decided by CFD.MatchLHS, every rule scanned for every tuple. It
// shares no code with the engine's VID matching or its context index, so an
// index bug cannot hide in both.
type refCounts struct {
	ctx, vio, sat []int
	vioRules      [][]int // per tuple, ascending
	dirty         []int
}

func stringRecount(db *relation.DB, rules []*CFD) refCounts {
	n := db.N()
	rc := refCounts{
		ctx: make([]int, len(rules)), vio: make([]int, len(rules)), sat: make([]int, len(rules)),
		vioRules: make([][]int, n),
	}
	tuples := make([]relation.Tuple, n)
	for tid := range tuples {
		tuples[tid] = db.Tuple(tid)
	}
	for ri, r := range rules {
		rhs := db.Schema.MustIndex(r.RHS)
		violating := make([]bool, n)
		buckets := make(map[string]map[string][]int) // LHS values -> RHS value -> tids
		for tid, t := range tuples {
			if !r.MatchLHS(db.Schema, t) {
				continue
			}
			rc.ctx[ri]++
			if r.Constant() {
				violating[tid] = !MatchValue(t[rhs], r.TP[r.RHS])
				continue
			}
			var key []string
			for _, a := range r.LHS {
				key = append(key, t[db.Schema.MustIndex(a)])
			}
			k := strings.Join(key, "\x00")
			if buckets[k] == nil {
				buckets[k] = make(map[string][]int)
			}
			buckets[k][t[rhs]] = append(buckets[k][t[rhs]], tid)
		}
		viol := 0
		for tid, v := range violating {
			if v {
				rc.vio[ri]++
				viol++
				rc.vioRules[tid] = append(rc.vioRules[tid], ri)
			}
		}
		for _, byVal := range buckets {
			total, sumsq := 0, 0
			for _, tids := range byVal {
				total += len(tids)
				sumsq += len(tids) * len(tids)
			}
			rc.vio[ri] += total*total - sumsq
			if len(byVal) < 2 {
				continue
			}
			viol += total
			for _, tids := range byVal {
				for _, tid := range tids {
					rc.vioRules[tid] = append(rc.vioRules[tid], ri)
				}
			}
		}
		rc.sat[ri] = rc.ctx[ri] - viol
	}
	for tid := range rc.vioRules {
		slices.Sort(rc.vioRules[tid])
		if len(rc.vioRules[tid]) > 0 {
			rc.dirty = append(rc.dirty, tid)
		}
	}
	return rc
}

// checkAgainstStrings compares every engine counter, every tuple's
// vioRuleList and the dirty set with the string recount, and returns the
// recount.
func checkAgainstStrings(t *testing.T, e *Engine, where string) refCounts {
	t.Helper()
	rc := stringRecount(e.DB(), e.Rules())
	for ri, r := range e.Rules() {
		if e.Context(ri) != rc.ctx[ri] || e.Vio(ri) != rc.vio[ri] || e.Sat(ri) != rc.sat[ri] {
			t.Fatalf("%s: rule %s (Context, Vio, Sat) = (%d, %d, %d), string recount (%d, %d, %d)",
				where, r, e.Context(ri), e.Vio(ri), e.Sat(ri), rc.ctx[ri], rc.vio[ri], rc.sat[ri])
		}
	}
	for tid := range rc.vioRules {
		if got := e.VioRuleList(tid); !slices.Equal(got, rc.vioRules[tid]) {
			t.Fatalf("%s: VioRuleList(t%d) = %v, string recount %v", where, tid, got, rc.vioRules[tid])
		}
	}
	if got := e.Dirty(); !slices.Equal(got, rc.dirty) {
		t.Fatalf("%s: Dirty = %v, string recount %v", where, got, rc.dirty)
	}
	return rc
}

// changedDirty returns tid plus every tuple whose dirty status differs
// between two recounts, ascending: what Apply and Insert must report.
func changedDirty(before, after refCounts, tid int) []int {
	out := []int{tid}
	for m := range after.vioRules {
		was := m < len(before.vioRules) && len(before.vioRules[m]) > 0
		if m != tid && was != (len(after.vioRules[m]) > 0) {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// refVals is the data domain; refAbsent holds pattern constants that no
// generated tuple carries, so the engine interns them after the data.
var (
	refVals   = []string{"x", "y", "z", "w"}
	refAbsent = []string{"q", "r"}
)

// randomRuleSet builds a rule set over attributes A–E that covers every
// shape the context index distinguishes: a fixed core (a wildcard-only
// LHS, a first constant at a non-first LHS position, several rules filed
// under one constant, a constant absent from the data) plus random rules
// of LHS arity 1–3 in random attribute order, random constants and
// wildcards, constant or variable RHS.
func randomRuleSet(r *rand.Rand) []*CFD {
	rules := []*CFD{
		MustNew("open", []string{"B", "A"}, "C", map[string]string{"B": Wildcard, "A": Wildcard, "C": Wildcard}),
		MustNew("late", []string{"C", "A"}, "D", map[string]string{"C": Wildcard, "A": "x", "D": "y"}),
		MustNew("shared1", []string{"A"}, "B", map[string]string{"A": "y", "B": "x"}),
		MustNew("shared2", []string{"A", "D"}, "E", map[string]string{"A": "y", "D": Wildcard, "E": Wildcard}),
		MustNew("absent", []string{"E", "B"}, "A", map[string]string{"E": "q", "B": Wildcard, "A": "x"}),
	}
	attrs := []string{"A", "B", "C", "D", "E"}
	constant := func() string {
		if r.Intn(5) == 0 {
			return refAbsent[r.Intn(len(refAbsent))]
		}
		return refVals[r.Intn(len(refVals))]
	}
	for i, n := 0, 3+r.Intn(8); i < n; i++ {
		perm := r.Perm(len(attrs))
		k := 1 + r.Intn(3)
		lhs := make([]string, k)
		tp := make(map[string]string, k+1)
		for j := range lhs {
			lhs[j] = attrs[perm[j]]
			tp[lhs[j]] = Wildcard
			if r.Intn(2) == 0 {
				tp[lhs[j]] = constant()
			}
		}
		rhs := attrs[perm[k]]
		tp[rhs] = Wildcard
		if r.Intn(2) == 0 {
			tp[rhs] = constant()
		}
		rules = append(rules, MustNew(fmt.Sprintf("rand%d", i), lhs, rhs, tp))
	}
	r.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
	return rules
}

// TestEngineMatchesStringRecount checks the engine, context index included,
// against the string recount after every Apply and Insert on random rule
// sets; before each Apply it also checks WhatIf against the recount of the
// updated instance and AppendWhatIfVID against WhatIf (checkAppendWhatIf).
// Apply values include constants absent from the data and values never
// seen, and Apply and Insert must report exactly the tuples whose dirty
// status changed.
func TestEngineMatchesStringRecount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	schema := relation.MustSchema("R", []string{"A", "B", "C", "D", "E"})
	randomTuple := func() relation.Tuple {
		t := make(relation.Tuple, schema.Arity())
		for i := range t {
			t[i] = refVals[r.Intn(len(refVals))]
		}
		return t
	}
	for trial := 0; trial < 25; trial++ {
		db := relation.NewDB(schema)
		for i := 0; i < 24; i++ {
			db.MustInsert(randomTuple())
		}
		rules := randomRuleSet(r)
		e, err := NewEngine(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		before := checkAgainstStrings(t, e, fmt.Sprintf("trial %d build", trial))
		for step := 0; step < 50; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			if r.Intn(6) == 0 {
				tid, affected, err := e.Insert(randomTuple())
				if err != nil {
					t.Fatal(err)
				}
				after := checkAgainstStrings(t, e, where+" Insert")
				if want := changedDirty(before, after, tid); !slices.Equal(affected, want) {
					t.Fatalf("%s: Insert reported %v, dirty status changed for %v", where, affected, want)
				}
				before = after
				continue
			}
			tid := r.Intn(db.N())
			attr := schema.Attrs[r.Intn(schema.Arity())]
			var val string
			switch k := r.Intn(10); {
			case k < 2:
				val = refAbsent[r.Intn(len(refAbsent))]
			case k < 3:
				val = fmt.Sprintf("fresh-%d-%d", trial, step)
			default:
				val = refVals[r.Intn(len(refVals))]
			}
			predicted := e.WhatIf(tid, attr, val)
			checkAppendWhatIf(t, e, tid, attr, val, predicted)
			clone := db.Clone()
			clone.Set(tid, attr, val)
			hyp := stringRecount(clone, rules)
			for _, d := range predicted {
				if d.Vio != hyp.vio[d.Rule] || d.Sat != hyp.sat[d.Rule] {
					t.Fatalf("%s: WhatIf(t%d, %s=%s) rule %s (Vio, Sat) = (%d, %d), string recount (%d, %d)",
						where, tid, attr, val, rules[d.Rule], d.Vio, d.Sat, hyp.vio[d.Rule], hyp.sat[d.Rule])
				}
			}
			affected := e.Apply(tid, attr, val)
			after := checkAgainstStrings(t, e, where+" Apply")
			if want := changedDirty(before, after, tid); !slices.Equal(affected, want) {
				t.Fatalf("%s: Apply(t%d, %s=%s) reported %v, dirty status changed for %v",
					where, tid, attr, val, affected, want)
			}
			before = after
		}
	}
}
