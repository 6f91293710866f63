package learn

import (
	"math"
	"math/rand"
	"testing"
)

// TestGoSourceMatchesMathRand pins the copied source to math/rand: seeded
// alike, both must produce the same Int63 stream. A table derivation or
// seeding shortcut that is off by one lag goes wrong hundreds of draws in
// (at draw 273 for a tap mix-up), so every seed is followed for 2,000 draws,
// well past a full turn of the 607-word register.
func TestGoSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
		math.MaxInt64, math.MinInt64,
	}
	pick := rand.New(rand.NewSource(20240607))
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	var src goSource
	for _, seed := range seeds {
		ref := rand.NewSource(seed)
		src.Seed(seed)
		for d := 0; d < draws; d++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, draw %d: got %d, want %d", seed, d, got, want)
			}
		}
	}
}

// BenchmarkSeed compares seeding the copied source in place with
// constructing a math/rand source, once per tree of every retrain.
func BenchmarkSeed(b *testing.B) {
	b.Run("goSource", func(b *testing.B) {
		var src goSource
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rand.NewSource(int64(i))
		}
	})
}
