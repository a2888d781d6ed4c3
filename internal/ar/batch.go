package ar

import (
	"math/rand"

	"sam/internal/nn"
	"sam/internal/tensor"
)

// BatchSampler runs ancestral sampling over up to B lanes at once: each
// column step is one batched forward pass (a (B×H) GEMM per layer) plus B
// fused exp-and-draw walks, instead of B independent batch-1 forwards. The
// draw is fused into the logits pass: tensor.ExpRowMass exponentiates each
// lane's logit row in place and hands its total mass straight to the CDF
// walk, so no normalized-probability matrix is ever materialized. It is the
// model's only sampler and estimator — one tuple is batch 1 — and
// implements join.TupleSampler, emitting model bin codes. It is not safe
// for concurrent use; create one per goroutine.
type BatchSampler struct {
	m   *Model
	buf *nn.BatchInference
	// probs0 is column 0's distribution: the first conditional has no
	// parents, so its logits are a constant of the weights and every sweep
	// skips that forward pass entirely. It is re-softmaxed only when the
	// summed parameter versions move off probs0Stamp, the same dirty check
	// the inference buffer applies to its own caches. mass0 is its in-order
	// sum, the mass an unmasked column-0 draw walks.
	probs0      []float64
	mass0       float64
	params      []*tensor.Tensor
	probs0Stamp uint64
	open        *Spec     // no masks and no downweights: the spec sampling sweeps with
	sel         []float64 // per-lane selectivity
	// Estimation scratch: one reseedable stream per lane and the codes the
	// chains draw.
	rngs  []*rand.Rand
	codes []int32
}

// NewBatchSampler returns a sampler drawing batch tuples per forward
// sweep. batch must be at least 1; batch 1 is per-tuple sampling.
func (m *Model) NewBatchSampler(batch int) *BatchSampler {
	if batch < 1 {
		panic("ar: batch sampler needs at least one lane")
	}
	ncols := m.Layout.NumCols()
	s := &BatchSampler{
		m:      m,
		buf:    m.Net.NewBatchInference(batch),
		probs0: make([]float64, m.Disc[0].Bins()),
		params: m.Net.Params(),
		open:   &Spec{Masks: make([][]float64, ncols), Downweight: make([]bool, ncols)},
		sel:    make([]float64, batch),
		rngs:   make([]*rand.Rand, batch),
		codes:  make([]int32, batch*ncols),
	}
	for l := range s.rngs {
		s.rngs[l] = NewSampleRand(0)
	}
	s.snapshotProbs0()
	return s
}

// snapshotProbs0 softmaxes column 0's logits into probs0 and records the
// parameter versions they were computed from.
func (s *BatchSampler) snapshotProbs0() {
	s.probs0Stamp = s.paramStamp()
	tensor.SoftmaxRowInto(s.probs0, s.buf.ForwardCol(0).Row(0))
	s.mass0 = maskedMass(s.probs0, nil)
}

// paramStamp sums the MADE's parameter versions; the sum strictly
// increases on every MarkDirty.
func (s *BatchSampler) paramStamp() uint64 {
	var stamp uint64
	for _, p := range s.params {
		stamp += p.Version()
	}
	return stamp
}

// SampleFOJBatch draws len(rngs) tuples from the modeled joint
// distribution by batched ancestral sampling (Algorithm 1, lines 3–7, over
// all lanes per column step). Lane l consumes only rngs[l], so a lane's
// output depends on its own stream alone and the caller controls
// determinism by seeding the streams. dst holds len(rngs)·NumCols codes,
// lane-major.
func (s *BatchSampler) SampleFOJBatch(rngs []*rand.Rand, dst []int32) {
	ncols := s.m.Layout.NumCols()
	if len(rngs) == 0 || len(rngs) > s.buf.Batch() {
		panic("ar: SampleFOJBatch lane count out of range")
	}
	if len(dst) != len(rngs)*ncols {
		panic("ar: SampleFOJBatch dst has wrong length")
	}
	s.sweep(rngs, dst, s.open, ncols)
}

// EstimateSpec is the batched progressive-sampling estimator: samples
// Monte-Carlo chains run SampleFOJBatch's sweep with spec's masks, in
// blocks of up to B lanes that share each column step's forward pass, up
// to the last column spec constrains or downweights. Chain c draws from its
// own stream, SplitSeed(seed, c), and the chains' selectivities are summed
// in chain order, so the estimate is a function of (model, spec, seed,
// samples): the lane count B only sets how many chains share a sweep.
func (s *BatchSampler) EstimateSpec(seed int64, spec *Spec, samples int) float64 {
	samples = max(samples, 1)
	cols := 1
	for i := range spec.Masks {
		if spec.Masks[i] != nil || spec.Downweight[i] {
			cols = i + 1
		}
	}
	ncols := s.m.Layout.NumCols()
	var total float64
	for done := 0; done < samples; done += len(s.rngs) {
		rngs := s.rngs[:min(len(s.rngs), samples-done)]
		for l, rng := range rngs {
			rng.Seed(SplitSeed(seed, done+l))
		}
		s.sweep(rngs, s.codes[:len(rngs)*ncols], spec, cols)
		for _, sel := range s.sel[:len(rngs)] {
			total += sel
		}
	}
	return s.m.Population * total / float64(samples)
}

// sweep is Algorithm 1's ancestral sweep over columns 0..cols-1, for
// len(rngs) lanes at once: lane l draws from rngs[l] alone and writes
// column i's code to dst[l·NumCols+i]. spec's mask on a column restricts
// the lane's draw to it and multiplies the lane's selectivity in sel by
// the mass it keeps; a downweighted column divides the selectivity by the
// drawn fanout. A lane whose selectivity reaches zero draws no further.
// Without masks every draw is the plain conditional one. Each drawn code
// is set as column i's one-hot after column i's logits are consumed, so
// the engine keeps every cached activation that does not depend on
// column i.
func (s *BatchSampler) sweep(rngs []*rand.Rand, dst []int32, spec *Spec, cols int) {
	m := s.m
	ncols := m.Layout.NumCols()
	offsets := m.Net.Offsets()
	sel := s.sel[:len(rngs)]
	for l := range sel {
		sel[l] = 1
	}
	s.buf.Reset()
	if s.paramStamp() != s.probs0Stamp {
		s.snapshotProbs0()
	}
	for i := 0; i < cols; i++ {
		var logits *tensor.Tensor
		if i > 0 {
			logits = s.buf.ForwardCol(i)
		}
		mask := spec.Masks[i]
		for l, rng := range rngs {
			if sel[l] == 0 {
				continue // dead chain: its mask mass hit zero earlier
			}
			row, mass := s.probs0, s.mass0
			if i > 0 {
				// Exponentiate the logit row in place (it is forward-pass
				// scratch) and draw straight from the unnormalized masses.
				row = logits.Row(l)
				mass = tensor.ExpRowMass(row, row)
			}
			if mask != nil {
				kept := maskedMass(row, mask)
				if sel[l] *= kept / mass; sel[l] == 0 {
					continue
				}
				mass = kept
			}
			bin := drawFromMass(rng, row, mask, mass)
			if spec.Downweight[i] {
				sel[l] /= m.Layout.Cols[i].WeightVals[bin]
			}
			dst[l*ncols+i] = int32(bin)
			s.buf.SetInput(l, offsets[i]+bin)
		}
	}
}
