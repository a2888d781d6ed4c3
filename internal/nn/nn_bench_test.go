package nn

import (
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

// BenchmarkMADEForwardInfer measures every logit of one row on the
// allocation-free inference path at batch 1, the per-tuple cost: Reset,
// then ForwardCol and one SetInput per column.
func BenchmarkMADEForwardInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	colSizes := []int{64, 32, 16, 128, 8, 4, 50}
	m := NewMADE(rng, colSizes, 64, 2)
	buf := m.NewBatchInference(1)
	row := make([]int, len(colSizes))
	for c, size := range colSizes {
		row[c] = m.Offsets()[c] + rng.Intn(size)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		for c, flat := range row {
			buf.ForwardCol(c)
			buf.SetInput(0, flat)
		}
	}
}

// BenchmarkAdamStep measures one optimizer step over a realistic parameter
// set.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := NewMADE(rng, []int{64, 32, 16, 128}, 64, 2)
	opt := NewAdam(1e-3)
	var pairs []GradPair
	for _, p := range m.Params() {
		g := tensor.New(p.Rows, p.Cols)
		g.Randn(rng, 0.01)
		pairs = append(pairs, GradPair{Param: p, Grad: g})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(pairs)
	}
}
