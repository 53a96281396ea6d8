// Package rng provides a small deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**) for workload construction: particle
// loads, normal variates, mesh perturbations. It is
// independent of math/rand so that workloads are reproducible across Go
// releases — simulated results must be a pure function of the seed.
package rng

import "math"

// RNG is a xoshiro256** generator.
type RNG struct {
	s [4]uint64
	// cached second normal variate from Box–Muller
	normCached bool
	normValue  float64
}

// New returns a generator seeded from the given value via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n).
//
//simlint:allow deadexport hook: the uniform draw other packages' randomized property tests pick with
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar
// form). Each accepted pair gives two variates; the second is cached
// for the next call.
func (r *RNG) NormFloat64() float64 {
	if r.normCached {
		r.normCached = false
		return r.normValue
	}
	u, v, s := r.polar()
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.normValue = v * f
	r.normCached = true
	return u * f
}

// polar draws points of the square [-1, 1)² until one falls strictly
// inside the unit circle, and returns it with its squared radius s.
func (r *RNG) polar() (u, v, s float64) {
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, v, s
		}
	}
}

// SkipNormals advances the generator exactly as k NormFloat64 calls
// would, but transforms only a pair whose second variate it leaves
// cached: a pair it consumes whole costs no log or square root.
func (r *RNG) SkipNormals(k int) {
	if k > 0 && r.normCached {
		r.normCached = false
		k--
	}
	for ; k >= 2; k -= 2 {
		r.polar()
	}
	if k == 1 {
		r.NormFloat64()
	}
}
