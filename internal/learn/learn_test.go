package learn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 5e-3 }

func TestUncertaintyPaperExamples(t *testing.T) {
	// Section 4.2 example with a k=5 committee:
	// r1 votes {confirm:3, reject:1, retain:1} -> 0.86
	// r2 votes {confirm:1, reject:4, retain:0} -> 0.45
	r1 := Votes{3.0 / 5, 1.0 / 5, 1.0 / 5}
	if got := r1.Uncertainty(); !almost(got, 0.86) {
		t.Errorf("r1 uncertainty = %v, want ≈0.86", got)
	}
	// Exact value is 0.4555; the paper truncates it to 0.45.
	r2 := Votes{1.0 / 5, 4.0 / 5, 0}
	if got := r2.Uncertainty(); !almost(got, 0.4555) {
		t.Errorf("r2 uncertainty = %v, want ≈0.4555", got)
	}
	if r1.Top() != Confirm || r2.Top() != Reject {
		t.Errorf("majorities: %v %v", r1.Top(), r2.Top())
	}
	if r1.Uncertainty() <= r2.Uncertainty() {
		t.Error("r1 should be more uncertain than r2 and ordered first")
	}
}

func TestUncertaintyBounds(t *testing.T) {
	pure := Votes{1, 0, 0}
	if got := pure.Uncertainty(); got != 0 {
		t.Errorf("pure committee uncertainty = %v", got)
	}
	uniform := Votes{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if got := uniform.Uncertainty(); !almost(got, 1) {
		t.Errorf("uniform committee uncertainty = %v, want 1", got)
	}
	f := func(a, b, c uint8) bool {
		s := float64(a) + float64(b) + float64(c)
		if s == 0 {
			return true
		}
		v := Votes{float64(a) / s, float64(b) / s, float64(c) / s}
		u := v.Uncertainty()
		return u >= 0 && u <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLabelString(t *testing.T) {
	if Confirm.String() != "confirm" || Reject.String() != "reject" || Retain.String() != "retain" {
		t.Fatal("label strings")
	}
	if Label(9).String() != "unknown" {
		t.Fatal("unknown label string")
	}
}

// synthExamples builds a learnable pattern mirroring the paper's motivation:
// when the source is "H2" the city attribute is wrong (confirm the update),
// otherwise the current value is right (retain).
func synthExamples(n int, rng *rand.Rand) []Example {
	srcs := []string{"H1", "H2", "H3"}
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		src := srcs[rng.Intn(3)]
		label := Retain
		if src == "H2" {
			label = Confirm
		}
		out = append(out, Example{
			Cats:  []string{src, "city" + string(rune('a'+rng.Intn(5))), "Michigan City"},
			Sim:   rng.Float64(),
			Label: label,
		})
	}
	return out
}

func TestForestLearnsCorrelatedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := synthExamples(200, rng)
	f := Train(train, Config{K: 10, Seed: 1})
	if f.K() != 10 {
		t.Fatalf("K = %d", f.K())
	}
	correct := 0
	test := synthExamples(100, rng)
	for _, ex := range test {
		got, _ := f.Predict(ex.Cats, ex.Sim)
		if got == ex.Label {
			correct++
		}
	}
	if correct < 95 {
		t.Fatalf("forest accuracy %d/100 on a deterministic pattern", correct)
	}
}

func TestForestLearnsNumericFeature(t *testing.T) {
	// Label depends only on the similarity feature: high sim => confirm.
	rng := rand.New(rand.NewSource(4))
	var train []Example
	for i := 0; i < 200; i++ {
		s := rng.Float64()
		l := Reject
		if s > 0.5 {
			l = Confirm
		}
		train = append(train, Example{Cats: []string{"x"}, Sim: s, Label: l})
	}
	f := Train(train, Config{K: 10, Seed: 2})
	correct := 0
	for i := 0; i < 100; i++ {
		s := rng.Float64()
		want := Reject
		if s > 0.5 {
			want = Confirm
		}
		if got, _ := f.Predict([]string{"x"}, s); got == want {
			correct++
		}
	}
	if correct < 90 {
		t.Fatalf("numeric-split accuracy %d/100", correct)
	}
}

func TestForestVotesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := Train(synthExamples(60, rng), Config{K: 7, Seed: 9})
	for i := 0; i < 50; i++ {
		ex := synthExamples(1, rng)[0]
		label, v := f.Predict(ex.Cats, ex.Sim)
		sum := v[0] + v[1] + v[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("votes %v sum to %v", v, sum)
		}
		if label != v.Top() {
			t.Fatalf("label %v != top vote %v", label, v.Top())
		}
		if label < 0 || label >= NumLabels {
			t.Fatalf("label out of range: %v", label)
		}
	}
}

func TestForestUnseenCategoryFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := Train(synthExamples(100, rng), Config{K: 5, Seed: 3})
	// An unseen source value must still produce a valid prediction.
	label, v := f.Predict([]string{"H99", "nowhere", "Michigan City"}, 0.4)
	if label < 0 || label >= NumLabels {
		t.Fatalf("label = %v", label)
	}
	if s := v[0] + v[1] + v[2]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("votes sum %v", s)
	}
}

func TestTrainEmptyAndDeterminism(t *testing.T) {
	if Train(nil, Config{}) != nil {
		t.Fatal("training with no examples should return nil")
	}
	rng := rand.New(rand.NewSource(7))
	exs := synthExamples(80, rng)
	f1 := Train(exs, Config{K: 10, Seed: 42})
	f2 := Train(exs, Config{K: 10, Seed: 42})
	for i := 0; i < 40; i++ {
		ex := synthExamples(1, rng)[0]
		l1, v1 := f1.Predict(ex.Cats, ex.Sim)
		l2, v2 := f2.Predict(ex.Cats, ex.Sim)
		if l1 != l2 || v1 != v2 {
			t.Fatalf("same seed, different forests: %v/%v vs %v/%v", l1, v1, l2, v2)
		}
	}
}

func TestSingleClassTraining(t *testing.T) {
	exs := []Example{
		{Cats: []string{"a"}, Sim: 0.1, Label: Retain},
		{Cats: []string{"b"}, Sim: 0.9, Label: Retain},
	}
	f := Train(exs, Config{K: 3, Seed: 1})
	label, v := f.Predict([]string{"c"}, 0.5)
	if label != Retain || v[Retain] != 1 {
		t.Fatalf("single-class forest predicted %v %v", label, v)
	}
	if v.Uncertainty() != 0 {
		t.Fatalf("pure committee uncertainty = %v", v.Uncertainty())
	}
}

func TestModelLifecycle(t *testing.T) {
	m := NewModel(Config{K: 5, Seed: 8}, 3)
	if m.Ready() {
		t.Fatal("empty model should not be ready")
	}
	if _, _, ok := m.Predict([]string{"H2", "x", "y"}, 0.5); ok {
		t.Fatal("not-ready model must refuse to predict")
	}
	rng := rand.New(rand.NewSource(9))
	for _, ex := range synthExamples(2, rng) {
		m.Add(ex)
	}
	if m.Ready() {
		t.Fatal("2 examples < minTrain 3")
	}
	for _, ex := range synthExamples(50, rng) {
		m.Add(ex)
	}
	if !m.Ready() || m.Len() != 52 {
		t.Fatalf("ready=%v len=%d", m.Ready(), m.Len())
	}
	label, votes, ok := m.Predict([]string{"H2", "cityx", "Michigan City"}, 0.3)
	if !ok {
		t.Fatal("ready model should predict")
	}
	if label != Confirm {
		t.Fatalf("H2 pattern should predict confirm, got %v (votes %v)", label, votes)
	}
	// Adding an example marks the model stale; prediction still works.
	m.Add(synthExamples(1, rng)[0])
	if _, _, ok := m.Predict([]string{"H1", "citya", "Michigan City"}, 0.3); !ok {
		t.Fatal("retrained model should predict")
	}
}

func TestModelAddCopiesFeatures(t *testing.T) {
	m := NewModel(Config{}, 1)
	cats := []string{"H1", "a"}
	m.Add(Example{Cats: cats, Sim: 0, Label: Retain})
	cats[0] = "mutated"
	if got := m.State().Examples[0].Cats[0]; got != "H1" {
		t.Fatalf("Add must not retain the feature slice: example value %q", got)
	}
}

// TestModelAddArityMismatchPanics checks that Add rejects an example whose
// arity differs from the first example's at the call, instead of storing
// codes that misalign every later example, and keeps nothing of it.
func TestModelAddArityMismatchPanics(t *testing.T) {
	m := NewModel(Config{K: 3, Seed: 1}, 1)
	m.Add(Example{Cats: []string{"H1", "a"}, Sim: 0.5, Label: Retain})
	for _, cats := range [][]string{{"H1"}, {"H1", "a", "b"}, nil} {
		func() {
			defer func() {
				if r := recover(); r != "learn: feature arity mismatch" {
					t.Fatalf("Add(%q) recovered %v, want the arity mismatch panic", cats, r)
				}
			}()
			m.Add(Example{Cats: cats, Label: Confirm})
		}()
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after rejected examples, want 1", m.Len())
	}
	if label, _, ok := m.Predict([]string{"H1", "a"}, 0.5); !ok || label != Retain {
		t.Fatalf("model after rejected examples predicts %v (ok %v), want retain", label, ok)
	}
}

func TestPredictArityMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := Train(synthExamples(10, rng), Config{K: 2, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on arity mismatch")
		}
	}()
	f.Predict([]string{"only-one"}, 0.5)
}

func BenchmarkForestTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	exs := synthExamples(500, rng)
	b.ReportAllocs()
	seed := int64(0)
	for b.Loop() {
		Train(exs, Config{K: 10, Seed: seed})
		seed++
	}
}

func BenchmarkForestPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	f := Train(synthExamples(500, rng), Config{K: 10, Seed: 1})
	ex := synthExamples(1, rng)[0]
	b.ReportAllocs()
	for b.Loop() {
		f.Predict(ex.Cats, ex.Sim)
	}
}

// feedbackStream is an interactive-session-shaped feedback stream for one
// attribute's model: 13 categorical features, shaped like a 12-attribute
// hospital tuple plus the suggested value, two of them near-unique (patient
// id and visit date); similarities quantized the way short-string edit
// similarities are; feedback skewed toward reject and retain.
func feedbackStream(n int, rng *rand.Rand) []Example {
	// Cardinality per feature; 0 marks a near-unique one.
	cards := []int{0, 80, 2, 6, 12, 74, 150, 24, 28, 1, 0, 9, 24}
	out := make([]Example, n)
	for i := range out {
		cats := make([]string, len(cards))
		for f, card := range cards {
			if card == 0 {
				cats[f] = fmt.Sprintf("u%d-%06d", f, rng.Intn(1000000))
			} else {
				cats[f] = fmt.Sprintf("v%d-%d", f, rng.Intn(card))
			}
		}
		label := []Label{Confirm, Reject, Reject, Retain, Retain}[rng.Intn(5)]
		if cats[3] == "v3-1" {
			label = Confirm
		}
		out[i] = Example{Cats: cats, Sim: float64(rng.Intn(13)) / 12, Label: label}
	}
	return out
}

// BenchmarkModelRetrain replays the learner's share of an interactive
// feedback round: one Add and one Predict (which retrains the committee) per
// op, on a model holding 65–192 examples (about 130 on average).
func BenchmarkModelRetrain(b *testing.B) {
	const warm, window = 64, 128
	stream := feedbackStream(warm+window, rand.New(rand.NewSource(13)))
	fresh := func() *Model {
		m := NewModel(Config{Seed: 5}, 3)
		for _, ex := range stream[:warm] {
			m.Add(ex)
		}
		return m
	}
	m := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % window
		if j == 0 && i > 0 {
			b.StopTimer()
			m = fresh()
			b.StartTimer()
		}
		ex := stream[warm+j]
		m.Add(ex)
		m.Predict(ex.Cats, ex.Sim)
	}
}
