package ar

import "testing"

// TestSampleRandKnownAnswers pins the per-sample streams. SplitMix64
// started at 0 gives the reference outputs of Vigna's splitmix64.c;
// SplitSeed(seed, i) is the (i+1)-th output of the stream NewSampleRand
// starts at seed; Int63 is non-negative; and Seed restarts the stream,
// also for the draws rand.Rand derives from it.
func TestSampleRandKnownAnswers(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := uint64(SplitSeed(0, i)); got != want {
			t.Errorf("SplitSeed(0, %d) = %#x, want %#x", i, got, want)
		}
	}
	for _, seed := range []int64{0, 1, -7, 1 << 62} {
		r := NewSampleRand(seed)
		for i := 0; i < 100; i++ {
			if got, want := int64(r.Uint64()), SplitSeed(seed, i); got != want {
				t.Fatalf("seed %d: output %d is %d, SplitSeed gives %d", seed, i+1, got, want)
			}
		}
		for i := 0; i < 1000; i++ {
			if v := r.Int63(); v < 0 {
				t.Fatalf("seed %d: Int63 returned %d", seed, v)
			}
		}
		draw := func() [4]float64 {
			return [4]float64{r.Float64(), float64(r.Intn(1000)), float64(r.Int63()), r.Float64()}
		}
		r.Seed(seed)
		first := draw()
		r.Seed(seed)
		if again := draw(); again != first {
			t.Fatalf("seed %d: draws after a second Seed are %v, after the first %v", seed, again, first)
		}
		r.Seed(seed)
		if got, want := int64(r.Uint64()), SplitSeed(seed, 0); got != want {
			t.Fatalf("seed %d: first output after Seed is %d, want %d", seed, got, want)
		}
	}
}
