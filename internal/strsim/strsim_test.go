package strsim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"Westville", "Michigan City", 13},
		{"FT Wayne", "Fort Wayne", 3}, // case-sensitive: T != t

		{"46391", "46825", 3},
		{"gumbo", "gambol", 2},
		{"日本語", "日本", 1},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSimilarityKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"abc", "abc", 1},
		{"abcd", "", 0},
		{"FT Wayne", "Fort Wayne", 0.7},
	}
	for _, c := range cases {
		if got := Similarity(c.a, c.b); !close(got, c.want) {
			t.Errorf("Similarity(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func close(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func randWord(r *rand.Rand) string {
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(6)))
	}
	return b.String()
}

func TestLevenshteinProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 400, Rand: r, Values: nil}

	symmetric := func(x, y uint32) bool {
		rr := rand.New(rand.NewSource(int64(x)<<16 ^ int64(y)))
		a, b := randWord(rr), randWord(rr)
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}

	triangle := func(x, y, z uint32) bool {
		rr := rand.New(rand.NewSource(int64(x) ^ int64(y)<<8 ^ int64(z)<<16))
		a, b, c := randWord(rr), randWord(rr), randWord(rr)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}

	identity := func(x uint32) bool {
		rr := rand.New(rand.NewSource(int64(x)))
		a := randWord(rr)
		return Levenshtein(a, a) == 0 && Similarity(a, a) == 1
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}

	bounded := func(x, y uint32) bool {
		rr := rand.New(rand.NewSource(int64(x)*31 + int64(y)))
		a, b := randWord(rr), randWord(rr)
		s := Similarity(a, b)
		d := Levenshtein(a, b)
		maxLen := len([]rune(a))
		if l := len([]rune(b)); l > maxLen {
			maxLen = l
		}
		return s >= 0 && s <= 1 && d >= 0 && d <= maxLen
	}
	if err := quick.Check(bounded, cfg); err != nil {
		t.Errorf("bounds: %v", err)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("Michigan City", "Fort Wayne")
	}
}

func BenchmarkSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Similarity("StreetAddress 123", "Street Adress 132")
	}
}
