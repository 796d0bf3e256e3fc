// Package stats provides seeded random samplers, summary statistics and
// empirical distribution helpers used throughout the netconstant simulators
// and experiment harness.
//
// Every sampler takes an explicit *rand.Rand so that all stochastic
// components of the repository are deterministic given a seed; no package in
// this module reads the wall clock or the global rand source.
package stats

import (
	"math/rand"
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a child RNG from a parent, so that concurrent components can
// each own an independent deterministic stream. The child's seed mixes the
// parent stream with the supplied tag.
func Split(r *rand.Rand, tag int64) *rand.Rand {
	const mix = int64(0x1E3779B97F4A7C15) // golden-ratio mixing constant, truncated to int64
	return rand.New(rand.NewSource(r.Int63() ^ (tag * mix)))
}

// Uniform samples from [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential samples an exponential waiting time with the given mean
// (i.e. rate 1/mean). It is the inter-arrival distribution of a Poisson
// process, used by the background-traffic generators (paper §V-A).
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of n elements.
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// SampleWithoutReplacement returns k distinct integers in [0, n).
// It panics if k > n.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("stats: sample size exceeds population")
	}
	p := r.Perm(n)
	out := make([]int, k)
	copy(out, p[:k])
	return out
}

// CountingSource is a math/rand Source64 that counts the steps it has
// taken, so a generator's position can be recorded as one number and
// restored by fast-forwarding a fresh source from the same seed. Its
// stream is the plain NewRNG stream: rngSource's Int63 and Uint64 each
// advance the generator exactly one step, and every rand.Rand method
// draws through one of them. (rand.Rand.Read buffers bytes inside the
// Rand, outside the source's count; position-exact callers do not use
// it.)
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// NewCountingSource returns a counting source seeded like NewRNG.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *CountingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *CountingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source: it reseeds and restarts the count.
func (s *CountingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// Draws returns how many steps the source has taken since its seed.
func (s *CountingSource) Draws() uint64 { return s.draws }

// Skip advances the source n steps, discarding the values: a fresh
// source skipped by a recorded Draws continues exactly where the
// recorded one stood.
func (s *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws += n
}
