// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator, the graph generators and the samplers.
//
// Two building blocks are exposed:
//
//   - RNG: a xoshiro256** generator seeded through SplitMix64, suitable as a
//     general-purpose stream. It is deliberately not safe for concurrent use;
//     every PE/worker derives its own stream with Split or New.
//   - Stateless hashing (Hash64, EdgeWeight): pure functions of their inputs,
//     used whenever two PEs must agree on a random value without
//     communicating (e.g. the weight of edge {u,v} seen from both sides).
//
// Determinism across runs and across the number of PEs is a design
// requirement: experiments must be reproducible and correctness tests compare
// outputs across different machine widths.
package rng

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is used for seeding and for stateless hashing because every
// output bit depends on every input bit (full avalanche).
func splitMix64(x uint64) (next uint64, out uint64) {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return x, z ^ (z >> 31)
}

// Hash64 mixes an arbitrary number of 64-bit words into a single
// well-distributed 64-bit value. It is pure: equal inputs give equal outputs
// on every PE, which is what makes communication-free random edge weights
// possible.
func Hash64(words ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h ^= w
		_, h = splitMix64(h)
	}
	return h
}

// RNG is a xoshiro256** pseudo-random generator. The zero value is invalid;
// construct with New or Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *RNG {
	r := Seeded(seed)
	return &r
}

// Seeded is New by value: a short-lived generator that stays on the stack.
func Seeded(seed uint64) RNG {
	var r RNG
	x := seed
	for i := range r.s {
		x, r.s[i] = splitMix64(x)
	}
	// xoshiro must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent child generator identified by id. Children
// with distinct ids produce streams that are independent for all practical
// purposes, so each PE or worker thread can own one.
func (r *RNG) Split(id uint64) *RNG {
	return New(Hash64(r.s[0], r.s[2], id))
}

// Next returns the next 64 uniformly distributed bits.
func (r *RNG) Next() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n). It panics if
// n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's method with rejection to remove bias.
	for {
		v := r.Next()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of 0..n-1 (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// EdgeWeight returns the deterministic weight of the undirected edge {u,v}
// under the given seed, uniformly distributed in [1, 255) as in the paper's
// experimental setup (following Baer et al.). Both orientations of the edge
// map to the same weight because the endpoints are canonicalized first.
func EdgeWeight(seed, u, v uint64) uint32 {
	if u > v {
		u, v = v, u
	}
	return uint32(Hash64(seed, u, v)%254) + 1
}
