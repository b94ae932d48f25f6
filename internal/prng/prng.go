// Package prng provides a small, fast, deterministic pseudo-random number
// generator for simulation use. Every stochastic component of the simulator
// draws from an explicitly seeded Source so that runs are exactly
// reproducible; the global math/rand state is never used.
//
// The generator is xoshiro256**, seeded through SplitMix64 as recommended by
// its authors. It is not cryptographically secure and must not be used for
// security purposes.
package prng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// valid; obtain one with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the SplitMix64 state and returns the next output.
// It is used only to expand a 64-bit seed into the 256-bit xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// give independent-looking streams; the same seed always gives the same
// stream.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the source to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	// xoshiro256** must not start from the all-zero state. SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Split derives a new independent Source from s. The derived stream is a
// deterministic function of s's current state, and s is advanced, so
// repeated Splits yield distinct children.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xa5a5a5a5deadbeef)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int { return s.PermInto(nil, n) }

// PermInto is Perm into buf, which it grows only when its capacity is
// below n: it draws the same permutation Perm would from the same state,
// by the same inside-out Fisher–Yates shuffle, and returns buf[:n].
func (s *Source) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	p := buf[:n]
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1).
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
