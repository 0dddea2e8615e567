package sim

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random stream. It wraps math/rand with helpers the
// simulators need (gaussian noise, zipfian keys)
// and supports deriving independent child streams so each component gets its
// own sequence without global coupling. A stream's position is snapshotable
// as (seed, draw count) — see Draws and RestoreRand — which is what lets a
// migrating session carry its RNG stream to another node byte-for-byte.
//
// The math/rand generator (≈5 KB of state) is built on the first draw, not
// when the stream is made: a stream nobody draws from — a session's, unless
// it adds privacy noise — costs a few words.
type Rand struct {
	rng  *rand.Rand // nil until the first draw
	src  countingSource
	seed int64
}

// countingSource wraps the math/rand source and counts state advances.
// Both Int63 and Uint64 advance the underlying generator by exactly one
// step, so the count alone (with the seed) pins the stream position: a
// restore replays count steps regardless of which methods consumed them.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// NewRand returns a stream seeded with seed. Equal seeds yield equal
// sequences.
func NewRand(seed int64) *Rand { return &Rand{seed: seed} }

// gen returns the stream's generator, building it on the first draw.
func (r *Rand) gen() *rand.Rand {
	if r.rng == nil {
		r.build()
	}
	return r.rng
}

// build seeds the generator and replays the src.n draws the stream is
// positioned after. rand.NewSource's result implements Source64
// (documented); counting at the source level sees every state advance,
// including the variable number of draws behind Norm/Shuffle.
func (r *Rand) build() {
	r.src.src = rand.NewSource(r.seed).(rand.Source64)
	for i := uint64(0); i < r.src.n; i++ {
		_ = r.src.src.Uint64() // advance the inner source without recounting
	}
	r.rng = rand.New(&r.src)
}

// Seed returns the seed this stream was created with.
func (r *Rand) Seed() int64 { return r.seed }

// Draws returns how many times the underlying generator has advanced.
// (seed, draws) identifies the stream position exactly.
func (r *Rand) Draws() uint64 { return r.src.n }

// RestoreRand returns a stream positioned as if draws values had already
// been consumed from NewRand(seed): the next value equals what the
// original stream would produce next. The first draw replays the stream,
// O(draws) — cheap for the per-session streams that snapshot (a session
// draws only for privacy noise), and irrelevant for bulk simulation
// streams, which never do.
func RestoreRand(seed int64, draws uint64) *Rand {
	return &Rand{seed: seed, src: countingSource{n: draws}}
}

// Child derives an independent stream identified by name. The same
// (seed, name) pair always yields the same child sequence.
func (r *Rand) Child(name string) *Rand {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return NewRand(r.seed ^ h)
}

// Int63 returns a non-negative pseudo-random int64.
func (r *Rand) Int63() int64 { return r.gen().Int63() }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.gen().Intn(n) }

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.gen().Float64() }

// Uniform returns a pseudo-random float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.gen().Float64()
}

// Norm returns a gaussian sample with the given mean and standard deviation.
func (r *Rand) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.gen().NormFloat64()
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.gen().Float64() < p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.gen().Shuffle(n, swap) }

// Zipf draws integers in [0, n) with a zipfian distribution of exponent s
// (s > 1 for heavier skew toward small values). The zero-allocation
// construction of rand.Zipf is hidden behind a small cache keyed by (n, s).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a zipfian sampler over [0, n) with skew s (must be > 1).
func (r *Rand) NewZipf(s float64, n int) *Zipf {
	if n <= 0 {
		panic("sim: Zipf n must be positive")
	}
	if s <= 1 {
		s = 1.0001
	}
	return &Zipf{z: rand.NewZipf(r.gen(), s, 1, uint64(n-1))}
}

// Next returns the next zipfian sample in [0, n).
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// Pick returns a uniformly chosen element of the non-empty slice values.
func Pick[T any](r *Rand, values []T) T {
	return values[r.Intn(len(values))]
}

// Jitter returns v multiplied by a uniform factor in [1-f, 1+f]. It is used
// to perturb model parameters so simulated components are not lockstep.
func (r *Rand) Jitter(v, f float64) float64 {
	if f <= 0 {
		return v
	}
	return v * r.Uniform(1-f, 1+f)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
