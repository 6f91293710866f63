package learn

import "math/rand"

// goSource is a copy of math/rand's Go 1 source (rngSource in
// math/rand/rng.go): an additive lagged Fibonacci generator over a 607-word
// register with tap 273. Int63 and Uint64 are the same code, so a goSource
// and rand.NewSource seeded alike yield the same stream forever, and a
// *rand.Rand built on either makes the same draws.
//
// Only seeding differs. math/rand fills the register from 1,841 successive
// steps of x ← 48271·x mod (2³¹−1), a serial chain of divisions, and a
// committee retrain seeds one source per tree plus one for the tree seeds.
// Step k from seed s is just 48271ᵏ·s mod (2³¹−1), so Seed multiplies s by
// precomputed powers instead; the products are independent of each other
// (BenchmarkSeed: 1.2 µs against 6.3 µs for rand.NewSource on one AMD EPYC
// core). The source is also re-seeded in place, so a pooled tree grower
// never allocates one.
type goSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip is the number of seeding steps math/rand discards before the
	// first register word.
	seedSkip = 20
)

var (
	// seedPow[i][j] is 48271^(seedSkip+1+3i+j) mod (2³¹−1): the multiplier
	// that turns a seed into the j-th of the three seeding steps mixed into
	// register word i.
	seedPow [rngLen][3]uint64
	// rngCooked is math/rand's table of the same name: the constants XORed
	// into the seeded register. It is derived at init from math/rand's own
	// output (see deriveCooked) instead of being copied.
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for k := 1; k <= seedSkip+3*rngLen; k++ {
		x = mulMod(x, 48271)
		if k > seedSkip {
			i := (k - seedSkip - 1) / 3
			seedPow[i][(k-seedSkip-1)%3] = x
		}
	}
	deriveCooked()
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the 62-bit product
// with the Mersenne identity 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	v := a * b
	v = v&int32max + v>>31
	if v >= int32max {
		v -= int32max
	}
	return v
}

// seedWords writes the seed-dependent half of every register word, before
// the cooked table is mixed in. It is math/rand's seeding loop with each
// step computed directly from the seed.
func seedWords(seed int64, vec *[rngLen]int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s := uint64(seed)
	for i := range vec {
		p := &seedPow[i]
		u := int64(mulMod(p[0], s)) << 40
		u ^= int64(mulMod(p[1], s)) << 20
		u ^= int64(mulMod(p[2], s))
		vec[i] = u
	}
}

// deriveCooked recovers rngCooked from the first rngLen outputs of a
// math/rand source. The register words w₀…w₆₀₆, taken in the order the
// feed pointer overwrites them (register index (333−j) mod 607 holds w_j),
// extend by w_n = w_{n−607} + w_{n−273}, and output t is w_{606+t}. Solving
// that recurrence backwards from n = 1213 gives every wⱼ: the w_{n−273} it
// needs is either an output or a word already solved at n+334. XORing the
// seed-dependent half back out of the register leaves the table.
func deriveCooked() {
	const refSeed = 1
	ref := rand.NewSource(refSeed).(rand.Source64)
	var w [2 * rngLen]int64
	for n := rngLen; n < len(w); n++ {
		w[n] = int64(ref.Uint64())
	}
	for n := len(w) - 1; n >= rngLen; n-- {
		w[n-rngLen] = w[n] - w[n-rngTap]
	}
	var seeded [rngLen]int64
	seedWords(refSeed, &seeded)
	for j := 0; j < rngLen; j++ {
		i := (rngLen - rngTap - 1 - j + rngLen) % rngLen
		rngCooked[i] = w[j] ^ seeded[i]
	}
}

// Seed initializes the source to the state rand.NewSource(seed) starts in.
func (s *goSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seedWords(seed, &s.vec)
	for i := range s.vec {
		s.vec[i] ^= rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *goSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *goSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
