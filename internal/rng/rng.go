// Package rng provides the deterministic pseudo-random machinery used by
// every generator in this repository.
//
// All generators are seeded from a single 64-bit master seed. Work is
// decomposed into independent scopes (a source vertex for TrillionG, a
// worker index for the baselines), and each scope derives its own stream
// via a splitmix64 hash of (master seed, scope ID). This makes the output
// graph a pure function of (seed, configuration) regardless of how many
// threads or simulated machines participate.
//
// The core stream generator is xoshiro256**, which is small, fast and has
// no stdlib dependency beyond math/bits. A Box–Muller normal sampler is
// layered on top for Theorem 1 (normal approximation of scope sizes).
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is used both as a seeding hash and as the
// expander that fills xoshiro state from a single 64-bit seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 hashes two 64-bit values into one. It is the scope-seeding
// function: Mix64(masterSeed, scopeID) yields the seed of the scope's
// private stream. The constants are from splitmix64; the double
// application decorrelates consecutive scope IDs.
func Mix64(a, b uint64) uint64 {
	s := a ^ (b+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9
	SplitMix64(&s)
	return SplitMix64(&s)
}

// Source is a xoshiro256** pseudo-random stream. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
	// spare holds a cached second normal variate from Box–Muller.
	spare    float64
	hasSpare bool
}

// New returns a Source seeded from a single 64-bit seed via splitmix64
// state expansion, as recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	src.seed(seed)
	return &src
}

func (r *Source) seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&st)
	}
	// xoshiro256** requires a nonzero state; splitmix64 of any seed gives
	// all-zero with probability ~2^-256, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	r.spare, r.hasSpare = 0, false
}

// NewScoped returns the private stream of scope `scope` under the given
// master seed.
func NewScoped(master uint64, scope uint64) *Source {
	return New(Mix64(master, scope))
}

// Reseed rewinds r to the start of scope `scope`'s private stream: the
// state NewScoped(master, scope) returns, cached normal variate
// included, without allocating. A scope loop keeps one Source and
// reseeds it per vertex.
func (r *Source) Reseed(master uint64, scope uint64) {
	r.seed(Mix64(master, scope))
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	var x uint64
	x, s[0], s[1], s[2], s[3] = next(s[0], s[1], s[2], s[3])
	return x
}

// next is one xoshiro256** step: the output of state (s0, s1, s2, s3)
// and the state after it.
func next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// UniformTo returns a uniform float64 in [0, hi).
func (r *Source) UniformTo(hi float64) float64 {
	return r.Float64() * hi
}

// UniformsTo sets xs[i] to the i-th of len(xs) successive UniformTo(hi)
// values, bit for bit, and leaves r where those calls would leave it.
// The xoshiro state stays in locals for the whole batch and is stored
// back once, where UniformTo loads and stores it per value. The cached
// normal variate is untouched, as UniformTo leaves it.
func (r *Source) UniformsTo(xs []float64, hi float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range xs {
		var x uint64
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		xs[i] = float64(x>>11) / (1 << 53) * hi
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// UniformIn returns a uniform float64 in [lo, hi).
func (r *Source) UniformIn(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// Int63n returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire-style rejection keeps the distribution exactly uniform.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	un := uint64(n)
	// Fast path for powers of two.
	if un&(un-1) == 0 {
		return int64(r.Uint64() & (un - 1))
	}
	max := ^uint64(0) - ^uint64(0)%un
	for {
		v := r.Uint64()
		if v <= max {
			return int64(v % un)
		}
	}
}

// Normal returns a sample from N(mu, sigma^2) via Box–Muller, caching the
// second variate of each pair.
func (r *Source) Normal(mu, sigma float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mu + sigma*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mu + sigma*u*m
}

// Binomial draws from Binomial(n, p) exactly when n is small and via the
// normal approximation when n is large. The paper's Theorem 1 uses the
// normal approximation throughout; the exact small-n path keeps unit-scale
// graphs faithful where the approximation is poor.
func (r *Source) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	const exactThreshold = 64
	if n <= exactThreshold {
		var k int64
		for i := int64(0); i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mu := float64(n) * p
	sigma := math.Sqrt(float64(n) * p * (1 - p))
	x := math.Round(r.Normal(mu, sigma))
	if x < 0 {
		return 0
	}
	if x > float64(n) {
		return n
	}
	return int64(x)
}
