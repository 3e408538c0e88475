package gpusim

import "math/rand"

// source is math/rand's seeded additive lagged Fibonacci generator
// (rand.NewSource), rebuilt so that a new stream costs what it draws.
// rand.NewSource fills all 607 feedback words up front — 1,821 LCG steps
// and a 4.9 KB register — and a city run builds thousands of GPUs that
// answer one Sample and are never drawn from again. Two facts about the
// generator let source skip that work without changing a bit:
//
//   - The seeding LCG is x[n+1] = 48271·x[n] mod (2³¹−1), so
//     x[n] = x[0]·48271ⁿ mod (2³¹−1), and register word i is
//     x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]. With the powers
//     tabled (lcgPow), any word is three multiplications.
//   - Draw k feeds word 333−k and taps word 606−k. For k < rngTap the tap
//     word has not been fed yet, so draw k is word(333−k) + word(606−k) of
//     the freshly seeded register.
//
// So a source holds the seed and a draw count, computes its first rngTap
// draws from two words each, and materializes the register (with those
// draws' feeds applied) only at draw rngTap, after which it steps exactly as
// math/rand does. TestSourceMatchesMathRand pins the equivalence.
type source struct {
	x0 uint64 // x[0] of the seeding LCG: the seed reduced as Seed does
	n  int    // draws so far, while vec is nil
	// vec is the feedback register, nil until draw rngTap; tap and feed
	// index it as in math/rand.
	vec       *[rngLen]int64
	tap, feed int
}

const (
	rngLen   = 607
	rngTap   = 273
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	lcgSteps = 21 + 3*rngLen // LCG states seeding reads: x[1..1841]
)

// lcgPow[n] is 48271ⁿ mod (2³¹−1).
var lcgPow = func() (p [lcgSteps]uint64) {
	p[0] = 1
	for n := 1; n < lcgSteps; n++ {
		p[n] = mulMod(p[n-1], lcgMul)
	}
	return p
}()

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹, folding the Mersenne
// modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// Seed resets the stream to math/rand's stream for seed.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{x0: uint64(seed)}
}

// word returns register word i as seeding leaves it.
func (s *source) word(i int) int64 {
	n := 21 + 3*i
	u := mulMod(s.x0, lcgPow[n])<<40 ^ mulMod(s.x0, lcgPow[n+1])<<20 ^ mulMod(s.x0, lcgPow[n+2])
	return int64(u) ^ rngCooked[i]
}

// materialize builds the register as math/rand's would stand after the
// rngTap draws already served.
func (s *source) materialize() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	for k := 0; k < rngTap; k++ {
		vec[rngLen-rngTap-1-k] += vec[rngLen-1-k]
	}
	s.vec, s.tap, s.feed = vec, rngLen-rngTap, rngLen-2*rngTap
}

// Uint64 returns the next 64 bits of the stream.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if k := s.n; k < rngTap {
			s.n++
			return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
		}
		s.materialize()
	}
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

// Int63 returns the next non-negative 63-bit integer of the stream.
func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// rand.Rand serves Uint64 from the source's own Uint64 only when the
// source is a Source64, as math/rand's is; otherwise it combines two Int63
// draws and the stream would differ.
var _ rand.Source64 = (*source)(nil)
