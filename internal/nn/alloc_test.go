package nn

import (
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

// TestTrainingStepAllocs pins the pooling contract at the nn level: a full
// MADE forward + backward + Adam step on a warm tape performs no heap
// allocation (beyond Adam's first-step state, built during warmup). Kernels
// run serially because the parallel path allocates goroutine bookkeeping.
func TestTrainingStepAllocs(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(5))
	colSizes := []int{8, 6, 4, 10}
	m := NewMADE(rng, colSizes, 32, 2)
	x := tensor.New(16, m.InDim())
	x.Randn(rng, 0.5)
	opt := NewAdam(1e-3)
	params := m.Params()
	pairs := make([]GradPair, len(params))

	g := tensor.NewGraph()
	step := func() {
		g.Reset()
		out := m.Forward(g, g.Const(x))
		loss := g.Mean(g.Square(out))
		g.Backward(loss)
		for i, p := range params {
			pairs[i] = GradPair{Param: p, Grad: g.ParamGrad(p)}
		}
		opt.Step(pairs)
	}
	step() // warm pool + Adam state
	step() // steady-state slice capacities
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("warm training step allocates %v times, want 0", n)
	}
}

// TestMaskedLinearForwardCacheConsistency checks that optimizer updates are
// reflected by both forward paths through the masked-weight cache.
func TestMaskedLinearForwardCacheConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	colSizes := []int{4, 3, 5}
	m := NewMADE(rng, colSizes, 8, 1)
	x := tensor.New(1, m.InDim())
	for i, off := range m.Offsets() {
		x.Data[off+rng.Intn(colSizes[i])] = 1
	}

	forward := func() []float64 {
		g := tensor.NewGraph()
		out := m.Forward(g, g.Const(x))
		return append([]float64(nil), out.Val.Data...)
	}
	bi := m.NewBatchInference(1)

	for round := 0; round < 3; round++ {
		auto := forward()
		infer := inferRow(m, bi, x.Data)
		for i := range auto {
			if diff := auto[i] - infer[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("round %d: autodiff/inference mismatch at %d: %v vs %v",
					round, i, auto[i], infer[i])
			}
		}
		// Simulate a training update between rounds.
		g := tensor.NewGraph()
		out := m.Forward(g, g.Const(x))
		loss := g.Mean(g.Square(out))
		g.Backward(loss)
		opt := NewAdam(1e-2)
		params := m.Params()
		pairs := make([]GradPair, 0, len(params))
		for _, p := range params {
			pairs = append(pairs, GradPair{Param: p, Grad: g.ParamGrad(p)})
		}
		opt.Step(pairs)
	}
}
