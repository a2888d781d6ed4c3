package ar

import "math/rand"

// Per-sample random streams. A generation run owns one user seed, and
// sample i of the run draws from its own SplitMix64 stream (Steele, Lea &
// Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014)
// started at SplitSeed(seed, i). Sample i is therefore a function of
// (seed, i) alone: which shard, lane, batch width or goroutine draws it
// cannot change it. Seeding a SplitMix64 source only sets its state, so a
// sampler reseeds each lane per sample at no cost.

// golden is SplitMix64's state increment, 2^64 divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// mix64 is SplitMix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SplitSeed returns the seed of sample i's stream in a run seeded with
// seed: the (i+1)-th output of the SplitMix64 stream started at seed, so
// adjacent indices land on uncorrelated points of the seed space.
func SplitSeed(seed int64, i int) int64 {
	return int64(mix64(uint64(seed) + (uint64(i)+1)*golden))
}

// splitMix is a SplitMix64 generator as a rand.Source64.
type splitMix uint64

func (s *splitMix) Seed(seed int64) { *s = splitMix(seed) }

func (s *splitMix) Uint64() uint64 {
	*s += golden
	return mix64(uint64(*s))
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewSampleRand returns a *rand.Rand over a SplitMix64 source started at
// seed. Samplers hold one per lane and, before each sample, point it at
// the sample's stream with Seed(SplitSeed(seed, i)).
func NewSampleRand(seed int64) *rand.Rand {
	src := splitMix(seed)
	return rand.New(&src)
}
