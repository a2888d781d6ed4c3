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
	buf nn.BatchInference
	// probs0 is column 0's distribution: the first conditional has no
	// parents, so its logits are a constant of the weights and every sweep
	// skips that forward pass entirely. It is re-softmaxed only when the
	// summed parameter versions move off probs0Stamp, the same dirty check
	// the inference buffer applies to its own caches.
	probs0      []float64
	params      []*tensor.Tensor
	probs0Stamp uint64
	sel         []float64 // per-lane selectivity accumulator (estimation)
}

// NewBatchSampler returns a sampler drawing batch tuples per forward
// sweep. batch must be at least 1; batch 1 is per-tuple sampling.
func (m *Model) NewBatchSampler(batch int) *BatchSampler {
	if batch < 1 {
		panic("ar: batch sampler needs at least one lane")
	}
	s := &BatchSampler{
		m:      m,
		buf:    m.Net.NewBatchInference(batch),
		probs0: make([]float64, m.Disc[0].Bins()),
		params: m.Net.Params(),
		sel:    make([]float64, batch),
	}
	s.snapshotProbs0()
	return s
}

// snapshotProbs0 softmaxes column 0's logits into probs0 and records the
// parameter versions they were computed from.
func (s *BatchSampler) snapshotProbs0() {
	s.probs0Stamp = s.paramStamp()
	tensor.SoftmaxRowInto(s.probs0, s.buf.ForwardCol(0).Row(0))
}

// paramStamp sums the backbone's parameter versions; the sum strictly
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
// lane-major. Each drawn code is set as column i's one-hot after column
// i's logits are consumed, so the engine keeps every cached activation
// that does not depend on column i.
func (s *BatchSampler) SampleFOJBatch(rngs []*rand.Rand, dst []int32) {
	m := s.m
	ncols := m.Layout.NumCols()
	lanes := len(rngs)
	if lanes == 0 || lanes > s.buf.Batch() {
		panic("ar: SampleFOJBatch lane count out of range")
	}
	if len(dst) != lanes*ncols {
		panic("ar: SampleFOJBatch dst has wrong length")
	}
	s.reset()
	offsets := m.Net.Offsets()
	for i := 0; i < ncols; i++ {
		var logits *tensor.Tensor
		if i > 0 {
			logits = s.buf.ForwardCol(i)
		}
		for l := 0; l < lanes; l++ {
			var bin int
			if i == 0 {
				bin = sampleCategorical(rngs[l], s.probs0, nil)
			} else {
				// Exponentiate the logit row in place (it is forward-pass
				// scratch) and draw straight from the unnormalized masses.
				row := logits.Row(l)
				bin = drawFromMass(rngs[l], row, nil, tensor.ExpRowMass(row, row))
			}
			dst[l*ncols+i] = int32(bin)
			s.buf.SetInput(l, offsets[i]+bin)
		}
	}
}

// reset starts a sweep from empty inputs, refreshing probs0 if the weights
// moved since it was taken.
func (s *BatchSampler) reset() {
	s.buf.Reset()
	if s.paramStamp() != s.probs0Stamp {
		s.snapshotProbs0()
	}
}

// EstimateSpec is the batched progressive-sampling estimator: Monte-Carlo
// chains advance in sweeps of up to B lanes, sharing each column step's
// forward pass. It rides the same fused logits path as SampleFOJBatch —
// the masked mass that updates a chain's selectivity (p = Σ exp·mask /
// Σ exp) is the same accumulation the CDF draw consumes, so estimation and
// sampling exercise one code path. All chains draw from the single rng in
// lane order, so the estimate is deterministic for a fixed (rng state,
// batch) pair; different batch sizes give different (equally valid)
// Monte-Carlo draws for the same seed.
func (s *BatchSampler) EstimateSpec(rng *rand.Rand, spec *Spec, samples int) float64 {
	m := s.m
	if samples <= 0 {
		samples = 1
	}
	lastNeeded := 0
	for i := range m.Layout.Cols {
		if spec.Masks[i] != nil || spec.Downweight[i] {
			lastNeeded = i
		}
	}
	batch := s.buf.Batch()
	offsets := m.Net.Offsets()
	var total float64
	for done := 0; done < samples; done += batch {
		lanes := batch
		if rest := samples - done; rest < lanes {
			lanes = rest
		}
		sel := s.sel[:lanes]
		s.reset()
		for l := 0; l < lanes; l++ {
			sel[l] = 1
		}
		for i := 0; i <= lastNeeded; i++ {
			var logits *tensor.Tensor
			if i > 0 {
				logits = s.buf.ForwardCol(i)
			}
			mask := spec.Masks[i]
			for l := 0; l < lanes; l++ {
				if sel[l] == 0 {
					continue // dead chain: mask mass hit zero earlier
				}
				var bin int
				if i == 0 {
					// Column 0 keeps the exact normalized snapshot, so
					// parent-free estimates stay exact expectations.
					if mask != nil {
						var p float64
						for b, pv := range s.probs0 {
							p += pv * mask[b]
						}
						sel[l] *= p
						if sel[l] == 0 {
							continue
						}
					}
					bin = sampleCategorical(rng, s.probs0, mask)
				} else {
					row := logits.Row(l)
					mass := tensor.ExpRowMass(row, row)
					if mask != nil {
						var mm float64
						for b, pv := range row {
							mm += pv * mask[b]
						}
						sel[l] *= mm / mass
						if sel[l] == 0 {
							continue
						}
						bin = drawFromMass(rng, row, mask, mm)
					} else {
						bin = drawFromMass(rng, row, nil, mass)
					}
				}
				if spec.Downweight[i] {
					sel[l] /= m.Layout.Cols[i].WeightVals[bin]
				}
				s.buf.SetInput(l, offsets[i]+bin)
			}
		}
		for l := 0; l < lanes; l++ {
			total += sel[l]
		}
	}
	return m.Population * total / float64(samples)
}
