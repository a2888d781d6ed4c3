package nn

import (
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

// TestTrainingStepAllocs pins the pooling contract at the nn level: a full
// MADE chain pass + backward + Adam step on a warm tape performs no heap
// allocation (beyond Adam's first-step state, built during warmup). Kernels
// run serially because the parallel path allocates goroutine bookkeeping.
func TestTrainingStepAllocs(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(5))
	colSizes := []int{8, 6, 4, 10}
	m := NewMADE(rng, colSizes, 32, 2)
	samples := make([]*tensor.Tensor, len(colSizes))
	for i, size := range colSizes {
		samples[i] = tensor.New(16, size)
		samples[i].Randn(rng, 0.5)
	}
	opt := NewAdam(1e-3)
	params := m.Params()
	pairs := make([]GradPair, len(params))
	chain := m.NewChain()

	g := tensor.NewGraph()
	step := func() {
		g.Reset()
		chain.Reset(g, 16)
		var loss, y *tensor.Node
		for i := range colSizes {
			term := g.Mean(g.Square(chain.Next(y)))
			if loss == nil {
				loss = term
			} else {
				loss = g.Add(loss, term)
			}
			y = g.Const(samples[i])
		}
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
// reflected by both forward paths through the masked-weight cache: the
// chain, which reads the cached W∘Mask in its autodiff kernels, and
// batched inference, which reads it in its own.
func TestMaskedLinearForwardCacheConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	colSizes := []int{4, 3, 5}
	m := NewMADE(rng, colSizes, 8, 1)
	x := make([]float64, inWidth(colSizes))
	for i, off := range m.Offsets() {
		x[off+rng.Intn(colSizes[i])] = 1
	}
	bi := m.NewBatchInference(1)

	for round := 0; round < 3; round++ {
		chain := chainRows(m, [][]float64{x})[0]
		infer := inferRow(m, bi, x)
		for i := range chain {
			if diff := chain[i] - infer[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("round %d: chain/inference mismatch at %d: %v vs %v",
					round, i, chain[i], infer[i])
			}
		}
		// Simulate a training update between rounds.
		trainSimpleDistribution(m, colSizes, NewAdam(1e-2), 1)
	}
}
