package nn

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

func TestMaskedLinearZeroMaskBlocksSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mask := tensor.New(3, 2) // all zero
	l := NewMaskedLinear(rng, 3, 2, mask)
	g := tensor.NewGraph()
	x := tensor.FromSlice(1, 3, []float64{5, 5, 5})
	y := l.forwardWindow(g, g.Const(x), 3, 0, 2)
	for j := 0; j < 2; j++ {
		if y.Val.At(0, j) != l.B.Data[j] {
			t.Fatalf("masked-out weight leaked signal")
		}
	}
}

func TestMADEAutoregressiveProperty(t *testing.T) {
	// Perturbing the one-hot block of column j must not change the logits of
	// any column i ≤ j.
	rng := rand.New(rand.NewSource(3))
	colSizes := []int{3, 4, 2, 5}
	m := NewMADE(rng, colSizes, 16, 2)
	bi := m.NewBatchInference(1)

	base := make([]float64, inWidth(colSizes))
	for i, off := range m.Offsets() {
		base[off+rng.Intn(colSizes[i])] = 1
	}
	out0 := inferRow(m, bi, base)

	for j := 0; j < len(colSizes); j++ {
		// Set every input of column j: a multi-hot block unlike the base's.
		perturbed := append([]float64(nil), base...)
		for k := 0; k < colSizes[j]; k++ {
			perturbed[m.Offsets()[j]+k] = 1
		}
		out1 := inferRow(m, bi, perturbed)
		for i := 0; i <= j; i++ {
			a := colBlock(m, out0, i)
			b := colBlock(m, out1, i)
			for k := range a {
				if math.Abs(a[k]-b[k]) > 1e-12 {
					t.Fatalf("column %d logits depend on column %d input", i, j)
				}
			}
		}
	}
}

func TestMADEFirstColumnUnconditional(t *testing.T) {
	// Column 0 logits must be constant regardless of the entire input.
	rng := rand.New(rand.NewSource(4))
	m := NewMADE(rng, []int{3, 3}, 8, 2)
	bi := m.NewBatchInference(1)
	a := colBlock(m, inferRow(m, bi, make([]float64, 6)), 0)
	noise := make([]float64, 6)
	for i := range noise {
		noise[i] = float64(rng.Intn(2))
	}
	b := colBlock(m, inferRow(m, bi, noise), 0)
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-12 {
			t.Fatal("column 0 logits are input-dependent")
		}
	}
}

func TestMADESingleColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMADE(rng, []int{5}, 8, 1)
	out := inferRow(m, m.NewBatchInference(1), make([]float64, 5))
	if len(colBlock(m, out, 0)) != 5 {
		t.Fatal("bad single-column logits")
	}
}

func TestMADEPanicsOnBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fn := range []func(){
		func() { NewMADE(rng, nil, 8, 1) },
		func() { NewMADE(rng, []int{2, 0}, 8, 1) },
		func() { NewMADE(rng, []int{2}, 0, 1) },
		func() { NewMADE(rng, []int{2}, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimize ‖W − target‖² — Adam should get close quickly.
	rng := rand.New(rand.NewSource(8))
	w := tensor.New(1, 4)
	w.Randn(rng, 1)
	target := tensor.FromSlice(1, 4, []float64{1, -2, 3, 0.5})
	opt := NewAdam(0.05)
	for step := 0; step < 500; step++ {
		g := tensor.NewGraph()
		p := g.Param(w)
		diff := g.Sub(p, g.Const(target))
		loss := g.Mean(g.Square(diff))
		g.Backward(loss)
		opt.Step([]GradPair{{Param: w, Grad: g.ParamGrad(w)}})
	}
	for i := range w.Data {
		if math.Abs(w.Data[i]-target.Data[i]) > 1e-2 {
			t.Fatalf("Adam did not converge: %v vs %v", w.Data, target.Data)
		}
	}
	if opt.step != 500 {
		t.Fatalf("step count %d", opt.step)
	}
}

func TestAdamGradientClipping(t *testing.T) {
	w := tensor.FromSlice(1, 2, []float64{0, 0})
	grad := tensor.FromSlice(1, 2, []float64{3e6, 4e6})
	opt := NewAdam(0.1)
	opt.ClipMax = 5
	opt.Step([]GradPair{{Param: w, Grad: grad}})
	norm := math.Hypot(grad.Data[0], grad.Data[1])
	if math.Abs(norm-5) > 1e-9 {
		t.Fatalf("clipped norm %v", norm)
	}
}

func TestMADETrainsSimpleDistribution(t *testing.T) {
	// End-to-end sanity: train a 2-column MADE by maximum likelihood on a
	// deterministic pattern (x2 == x1) and check the learned conditionals.
	rng := rand.New(rand.NewSource(9))
	colSizes := []int{2, 2}
	m := NewMADE(rng, colSizes, 16, 2)
	opt := NewAdam(0.05)

	trainSimpleDistribution(m, colSizes, opt, 300)

	// Check P(x2 = v | x1 = v) is high for v in {0, 1}.
	bi := m.NewBatchInference(1)
	for v := 0; v < 2; v++ {
		x := make([]float64, inWidth(colSizes))
		x[m.Offsets()[0]+v] = 1
		logits := colBlock(m, inferRow(m, bi, x), 1)
		probs := make([]float64, 2)
		tensor.SoftmaxRowInto(probs, logits)
		if probs[v] < 0.9 {
			t.Fatalf("P(x2=%d|x1=%d) = %v, want > 0.9", v, v, probs[v])
		}
	}
}

// trainSimpleDistribution trains m, whose first two columns have at least
// two values each, for the given number of full-batch steps on the
// pattern x2 == x1 ∈ {0, 1} by maximum likelihood of column 2 given
// column 1, through the Chain as training runs it.
func trainSimpleDistribution(m *MADE, colSizes []int, opt *Adam, steps int) {
	samples := [][2]int{{0, 0}, {1, 1}, {0, 0}, {1, 1}}
	x1 := tensor.New(len(samples), colSizes[0])
	mask2 := tensor.New(len(samples), colSizes[1])
	for r, s := range samples {
		x1.Set(r, s[0], 1)
		mask2.Set(r, s[1], 1) // the mask selects the true value
	}
	chain := m.NewChain()
	for step := 0; step < steps; step++ {
		g := tensor.NewGraph()
		chain.Reset(g, len(samples))
		chain.Next(nil)
		col2 := chain.Next(g.Const(x1))
		loss := g.Scale(g.Mean(g.Log(g.RangeProb(col2, mask2))), -1)
		g.Backward(loss)
		var pairs []GradPair
		for _, param := range m.Params() {
			pairs = append(pairs, GradPair{Param: param, Grad: g.ParamGrad(param)})
		}
		opt.Step(pairs)
	}
}
