package ar

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/join"
	"sam/internal/relation"
	"sam/internal/tensor"
)

// batchTestModel builds a small untrained model; random init already
// defines a nondegenerate joint, which is all distribution-equivalence
// tests need.
func batchTestModel(t *testing.T) *Model {
	t.Helper()
	c1 := relation.NewColumn("x", relation.Categorical, 4)
	c2 := relation.NewColumn("y", relation.Categorical, 3)
	c3 := relation.NewColumn("z", relation.Categorical, 5)
	s := relation.MustSchema(relation.NewTable("t", c1, c2, c3))
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = 21
	return NewModel(join.NewLayout(s), nil, 500, cfg)
}

// exactJoint enumerates every tuple of m's (small) bin space with its
// exact probability under the model, read from the training Chain:
// P(x₀,…,xₙ) = Π P(xᵢ | x<ᵢ), each factor a softmax of the logit block
// Next returns for column i, fed the tuple's own one-hots of columns < i.
// It is the reference the sampler and the estimator are checked against:
// they run batched inference, a separate implementation of the same
// conditionals.
func exactJoint(m *Model) ([][]int, []float64) {
	ncols := m.Layout.NumCols()
	var tuples [][]int
	for cur := make([]int, ncols); ; {
		tuples = append(tuples, append([]int(nil), cur...))
		i := ncols - 1
		for ; i >= 0; i-- {
			if cur[i]++; cur[i] < m.Disc[i].Bins() {
				break
			}
			cur[i] = 0
		}
		if i < 0 {
			break
		}
	}
	probs := make([]float64, len(tuples))
	for r := range probs {
		probs[r] = 1
	}
	g := tensor.NewGraph()
	chain := m.Net.NewChain()
	chain.Reset(g, len(tuples))
	var y *tensor.Node
	for i := 0; i < ncols; i++ {
		logits := chain.Next(y).Val
		onehot := tensor.New(len(tuples), m.Disc[i].Bins())
		cond := make([]float64, m.Disc[i].Bins())
		for r, tup := range tuples {
			tensor.SoftmaxRowInto(cond, logits.Row(r))
			probs[r] *= cond[tup[i]]
			onehot.Set(r, tup[i], 1)
		}
		y = g.Const(onehot)
	}
	return tuples, probs
}

// TestSampleFOJBatchMatchesExactMarginals draws a large sample at batch 1
// (the per-tuple path) and at batch 32 and requires each column's marginal
// frequencies to match the exact marginals of the modeled joint.
func TestSampleFOJBatchMatchesExactMarginals(t *testing.T) {
	t.Run("made", func(t *testing.T) {
		m := batchTestModel(t)
		ncols := m.Layout.NumCols()
		tuples, probs := exactJoint(m)
		exact := make([][]float64, ncols)
		for i := range exact {
			exact[i] = make([]float64, m.Disc[i].Bins())
		}
		for r, tup := range tuples {
			for i, b := range tup {
				exact[i][b] += probs[r]
			}
		}

		const n = 12000
		for _, lanes := range []int{1, 32} {
			s := m.NewBatchSampler(lanes)
			rngs := make([]*rand.Rand, lanes)
			for l := range rngs {
				rngs[l] = rand.New(rand.NewSource(1000 + int64(l)))
			}
			dst := make([]int32, lanes*ncols)
			counts := make([][]int, ncols)
			for i := range counts {
				counts[i] = make([]int, m.Disc[i].Bins())
			}
			for k := 0; k < n/lanes; k++ {
				s.SampleFOJBatch(rngs, dst)
				for l := 0; l < lanes; l++ {
					for i := 0; i < ncols; i++ {
						counts[i][dst[l*ncols+i]]++
					}
				}
			}
			for i := range counts {
				for b, c := range counts[i] {
					if p := float64(c) / n; math.Abs(p-exact[i][b]) > 0.025 {
						t.Fatalf("B=%d col %d bin %d marginal: sampled %.4f vs exact %.4f",
							lanes, i, b, p, exact[i][b])
					}
				}
			}
		}
	})
}

// TestBatchSamplerWarmColdLanePermutation is the adversarial check on the
// prefix-cache wiring: a sampler whose activation cache and sparse-input
// bookkeeping have been churned by unrelated sweeps must draw exactly what
// a cold sampler draws, and a lane's output must be a function of its rng
// stream alone — independent of which lane index the stream lands on. The
// cold sweep runs streams in natural order; the warm sweep runs the same
// streams under a permutation, so any cross-lane leakage through the
// shared nonzero bookkeeping or stale cached activations breaks
// bit-equality. At batch 1 the permutation is trivial and only the
// warm-vs-cold half applies.
func TestBatchSamplerWarmColdLanePermutation(t *testing.T) {
	perms := map[int][]int{1: {0}, 6: {4, 2, 5, 0, 3, 1}}
	t.Run("made", func(t *testing.T) {
		m := batchTestModel(t)
		ncols := m.Layout.NumCols()
		for _, lanes := range []int{1, 6} {
			seed := func(l int) int64 { return 400 + int64(l)*17 }

			cold := m.NewBatchSampler(lanes)
			rngs := make([]*rand.Rand, lanes)
			for l := range rngs {
				rngs[l] = rand.New(rand.NewSource(seed(l)))
			}
			ref := make([]int32, lanes*ncols)
			cold.SampleFOJBatch(rngs, ref)

			warm := m.NewBatchSampler(lanes)
			churn := make([]int32, lanes*ncols)
			for sweep := 0; sweep < 3; sweep++ {
				for l := range rngs {
					rngs[l] = rand.New(rand.NewSource(9000 + int64(sweep*lanes+l)))
				}
				warm.SampleFOJBatch(rngs, churn)
			}

			perm := perms[lanes]
			for l, p := range perm {
				rngs[l] = rand.New(rand.NewSource(seed(p)))
			}
			got := make([]int32, lanes*ncols)
			warm.SampleFOJBatch(rngs, got)
			for l, p := range perm {
				for i := 0; i < ncols; i++ {
					if got[l*ncols+i] != ref[p*ncols+i] {
						t.Fatalf("B=%d lane %d (stream %d) col %d: warm-permuted %d vs cold %d",
							lanes, l, p, i, got[l*ncols+i], ref[p*ncols+i])
					}
				}
			}
		}
	})
}

// TestBatchSamplerTracksWeightUpdates samples from a sampler, then moves
// column 0's output bias and announces it with MarkDirty, the way an
// optimizer step does. The reused sampler must then draw and estimate
// exactly what a fresh sampler does on the same streams: column 0's cached
// distribution follows the weights like every other cached activation.
func TestBatchSamplerTracksWeightUpdates(t *testing.T) {
	t.Run("made", func(t *testing.T) {
		m := batchTestModel(t)
		ncols := m.Layout.NumCols()
		const lanes = 8
		streams := func() []*rand.Rand {
			rngs := make([]*rand.Rand, lanes)
			for l := range rngs {
				rngs[l] = rand.New(rand.NewSource(100 + int64(l)))
			}
			return rngs
		}
		spec := &Spec{Masks: make([][]float64, ncols), Downweight: make([]bool, ncols)}
		spec.Masks[0] = []float64{1, 0, 1, 0}

		reused := m.NewBatchSampler(lanes)
		reused.SampleFOJBatch(streams(), make([]int32, lanes*ncols))
		reused.EstimateSpec(5, spec, 32)

		bias := m.Net.OutputBias()
		bias.Data[m.Net.Offsets()[0]] += 4
		bias.MarkDirty()

		fresh := m.NewBatchSampler(lanes)
		got, want := make([]int32, lanes*ncols), make([]int32, lanes*ncols)
		reused.SampleFOJBatch(streams(), got)
		fresh.SampleFOJBatch(streams(), want)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("lane %d col %d: reused sampler drew %d after the update, fresh sampler %d",
					k/ncols, k%ncols, got[k], want[k])
			}
		}
		ge := reused.EstimateSpec(5, spec, 32)
		we := fresh.EstimateSpec(5, spec, 32)
		if ge != we {
			t.Fatalf("reused sampler estimates %v after the update, fresh sampler %v", ge, we)
		}
	})
}

// TestBatchEstimateSpecMatchesExactJoint checks the progressive estimator
// against the exact joint at batch 1 and batch 16. A mask on column 0 alone
// makes the estimate an exact expectation (no Monte-Carlo variance), so it
// must match tightly; a mask on a later column is statistical, so the
// check is loose.
func TestBatchEstimateSpecMatchesExactJoint(t *testing.T) {
	m := batchTestModel(t)
	ncols := m.Layout.NumCols()
	tuples, probs := exactJoint(m)
	exact := func(col int, mask []float64) float64 {
		var p float64
		for r, tup := range tuples {
			p += probs[r] * mask[tup[col]]
		}
		return m.Population * p
	}

	spec0 := &Spec{Masks: make([][]float64, ncols), Downweight: make([]bool, ncols)}
	spec0.Masks[0] = []float64{1, 1, 0, 0}
	spec2 := &Spec{Masks: make([][]float64, ncols), Downweight: make([]bool, ncols)}
	spec2.Masks[2] = []float64{0, 1, 1, 0, 0}
	want0, want2 := exact(0, spec0.Masks[0]), exact(2, spec2.Masks[2])
	for _, lanes := range []int{1, 16} {
		s := m.NewBatchSampler(lanes)
		if got := s.EstimateSpec(2, spec0, 64); math.Abs(got-want0) > 1e-9*want0 {
			t.Fatalf("B=%d column-0 mask estimate %v, exact %v", lanes, got, want0)
		}
		got := s.EstimateSpec(6, spec2, 4096)
		if r := got / want2; r < 0.8 || r > 1.25 {
			t.Fatalf("B=%d column-2 mask estimate ratio %v (estimate %v, exact %v)", lanes, r, got, want2)
		}
	}
}

// TestSamplerEstimateSpecAllocFree pins the hoisted-scratch fix: a warm
// per-tuple (batch 1) BatchSampler.EstimateSpec call must not allocate
// (Model.EstimateSpec rebuilds the whole sampler every call).
func TestSamplerEstimateSpecAllocFree(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)

	m := batchTestModel(t)
	ncols := m.Layout.NumCols()
	spec := &Spec{Masks: make([][]float64, ncols), Downweight: make([]bool, ncols)}
	spec.Masks[2] = []float64{0, 1, 1, 0, 0}
	s := m.NewBatchSampler(1)
	call := func() { s.EstimateSpec(17, spec, 8) }
	call()
	if n := testing.AllocsPerRun(20, call); n != 0 {
		t.Fatalf("warm BatchSampler.EstimateSpec allocates %v times, want 0", n)
	}
}

// sampleCategorical draws an index proportional to probs (optionally
// reweighted by mask), the way the sweep draws a column: drawFromMass over
// the row's masked mass.
func sampleCategorical(rng *rand.Rand, probs, mask []float64) int {
	return drawFromMass(rng, probs, mask, maskedMass(probs, mask))
}

// TestSampleCategoricalDegenerate covers the zero-mass fallbacks.
func TestSampleCategoricalDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	// All-zero weights, no mask: uniform over all bins.
	counts := [4]int{}
	for k := 0; k < 4000; k++ {
		b := sampleCategorical(rng, []float64{0, 0, 0, 0}, nil)
		if b < 0 || b > 3 {
			t.Fatalf("bin %d out of range", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		if f := float64(c) / 4000; math.Abs(f-0.25) > 0.05 {
			t.Fatalf("zero-mass uniform fallback: bin %d frequency %v", b, f)
		}
	}

	// Mask kills all weight mass but admits bins 1 and 2: uniform over them.
	counts = [4]int{}
	for k := 0; k < 4000; k++ {
		b := sampleCategorical(rng, []float64{0.5, 0, 0, 0.5}, []float64{0, 1, 1, 0})
		counts[b]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("masked-out bins drawn: %v", counts)
	}
	for _, b := range []int{1, 2} {
		if f := float64(counts[b]) / 4000; math.Abs(f-0.5) > 0.05 {
			t.Fatalf("masked fallback: bin %d frequency %v", b, f)
		}
	}

	// All-zero mask: any bin may come back, but it must be in range.
	for k := 0; k < 100; k++ {
		if b := sampleCategorical(rng, []float64{1, 2, 3}, []float64{0, 0, 0}); b < 0 || b > 2 {
			t.Fatalf("bin %d out of range under zero mask", b)
		}
	}

	// Unnormalized weights draw proportionally — the property the batched
	// sampler's ExpRowMass (no normalization pass) relies on.
	var ones int
	for k := 0; k < 8000; k++ {
		if sampleCategorical(rng, []float64{1, 3}, nil) == 1 {
			ones++
		}
	}
	if f := float64(ones) / 8000; math.Abs(f-0.75) > 0.03 {
		t.Fatalf("unnormalized draw frequency %v, want ≈0.75", f)
	}
}
