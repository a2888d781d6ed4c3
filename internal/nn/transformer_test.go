package nn

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

func TestTransformerAutoregressiveProperty(t *testing.T) {
	// Perturbing the one-hot block of column j must not change the logits
	// of any column i ≤ j (causal masking + shifted tokens).
	rng := rand.New(rand.NewSource(1))
	colSizes := []int{3, 4, 2, 5}
	tr := NewTransformer(rng, colSizes, 16, 2, 32, 2)
	bi := tr.NewBatchInference(1)

	base := make([]float64, tr.InDim())
	for i, off := range tr.Offsets() {
		base[off+rng.Intn(colSizes[i])] = 1
	}
	out0 := inferRow(tr, bi, base)

	for j := 0; j < len(colSizes); j++ {
		// Set every input of column j: a multi-hot block unlike the base's.
		perturbed := append([]float64(nil), base...)
		for k := 0; k < colSizes[j]; k++ {
			perturbed[tr.Offsets()[j]+k] = 1
		}
		out1 := inferRow(tr, bi, perturbed)
		for i := 0; i <= j; i++ {
			a := colBlock(tr, out0, i)
			b := colBlock(tr, out1, i)
			for k := range a {
				if math.Abs(a[k]-b[k]) > 1e-9 {
					t.Fatalf("column %d logits depend on column %d input", i, j)
				}
			}
		}
	}
}

func TestTransformerBatchedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	colSizes := []int{3, 3}
	tr := NewTransformer(rng, colSizes, 8, 1, 16, 1)
	x := tensor.New(4, tr.InDim())
	for b := 0; b < 4; b++ {
		for i, off := range tr.Offsets() {
			x.Set(b, off+(b+i)%colSizes[i], 1)
		}
	}
	g := tensor.NewGraph()
	out := tr.Forward(g, g.Const(x))
	if out.Val.Rows != 4 || out.Val.Cols != tr.InDim() {
		t.Fatalf("batched output shape %v", out.Val)
	}
	// Each batch row must equal its standalone forward.
	for b := 0; b < 4; b++ {
		g2 := tensor.NewGraph()
		single := tr.Forward(g2, g2.Const(tensor.FromSlice(1, tr.InDim(), x.Row(b))))
		for j := range single.Val.Data {
			if math.Abs(single.Val.Data[j]-out.Val.At(b, j)) > 1e-12 {
				t.Fatalf("batch row %d differs from standalone forward", b)
			}
		}
	}
}

func TestTransformerGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := NewTransformer(rng, []int{3, 4}, 8, 2, 16, 1)
	x := tensor.New(2, tr.InDim())
	for b := 0; b < 2; b++ {
		for i, off := range tr.Offsets() {
			x.Set(b, off+rng.Intn(tr.ColSizes()[i]), 1)
		}
	}
	g := tensor.NewGraph()
	out := tr.Forward(g, g.Const(x))
	loss := g.Mean(g.Square(out))
	g.Backward(loss)
	nonzero := 0
	for _, p := range tr.Params() {
		grad := g.ParamGrad(p)
		if grad == nil {
			t.Fatalf("parameter %v untouched by graph", p)
		}
		for _, gv := range grad.Data {
			if math.IsNaN(gv) || math.IsInf(gv, 0) {
				t.Fatal("non-finite gradient")
			}
			if gv != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no gradients flowed")
	}
}

func TestTransformerTrainsSimpleDistribution(t *testing.T) {
	// Same learnability check as MADE: x2 deterministically equals x1.
	rng := rand.New(rand.NewSource(5))
	colSizes := []int{2, 2}
	tr := NewTransformer(rng, colSizes, 12, 2, 24, 1)
	opt := NewAdam(0.02)

	samples := [][2]int{{0, 0}, {1, 1}, {0, 0}, {1, 1}}
	for epoch := 0; epoch < 250; epoch++ {
		g := tensor.NewGraph()
		x := tensor.New(len(samples), tr.InDim())
		for r, s := range samples {
			x.Set(r, tr.Offsets()[0]+s[0], 1)
			x.Set(r, tr.Offsets()[1]+s[1], 1)
		}
		out := tr.Forward(g, g.Const(x))
		col2 := g.SliceCols(out, tr.Offsets()[1], colSizes[1])
		mask2 := tensor.New(len(samples), colSizes[1])
		for r, s := range samples {
			mask2.Set(r, s[1], 1)
		}
		p := g.RangeProb(col2, mask2)
		loss := g.Scale(g.Mean(g.Log(p)), -1)
		g.Backward(loss)
		var pairs []GradPair
		for _, param := range tr.Params() {
			pairs = append(pairs, GradPair{Param: param, Grad: g.ParamGrad(param)})
		}
		opt.Step(pairs)
	}

	bi := tr.NewBatchInference(1)
	for v := 0; v < 2; v++ {
		x := make([]float64, tr.InDim())
		x[tr.Offsets()[0]+v] = 1
		logits := colBlock(tr, inferRow(tr, bi, x), 1)
		probs := make([]float64, 2)
		tensor.SoftmaxRowInto(probs, logits)
		if probs[v] < 0.85 {
			t.Fatalf("P(x2=%d|x1=%d) = %v, want > 0.85", v, v, probs[v])
		}
	}
}

func TestTransformerPanicsOnBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, fn := range []func(){
		func() { NewTransformer(rng, nil, 8, 1, 8, 1) },
		func() { NewTransformer(rng, []int{2}, 0, 1, 8, 1) },
		func() { NewTransformer(rng, []int{2}, 8, 3, 8, 1) }, // d % heads != 0
		func() { NewTransformer(rng, []int{2, 0}, 8, 1, 8, 1) },
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

func TestGradCheckTensorOpsForTransformer(t *testing.T) {
	// Finite-difference checks for the transformer-specific ops.
	rng := rand.New(rand.NewSource(7))
	check := func(name string, param *tensor.Tensor, f func(g *tensor.Graph, p *tensor.Node) *tensor.Node) {
		g := tensor.NewGraph()
		p := g.Param(param)
		loss := f(g, p)
		g.Backward(loss)
		analytic := append([]float64(nil), g.ParamGrad(param).Data...)
		const h = 1e-6
		for i := range param.Data {
			orig := param.Data[i]
			param.Data[i] = orig + h
			g2 := tensor.NewGraph()
			lp := f(g2, g2.Param(param)).Val.Data[0]
			param.Data[i] = orig - h
			g3 := tensor.NewGraph()
			lm := f(g3, g3.Param(param)).Val.Data[0]
			param.Data[i] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-analytic[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s grad[%d]: numeric %v analytic %v", name, i, numeric, analytic[i])
			}
		}
	}

	a := tensor.New(3, 4)
	a.Randn(rng, 1)
	check("SoftmaxRows", a, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.SoftmaxRows(p)))
	})

	b := tensor.New(3, 4)
	b.Randn(rng, 1)
	other := tensor.New(2, 4)
	other.Randn(rng, 1)
	check("MatMulTB", b, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.MatMulTB(p, g.Const(other))))
	})
	check("MatMulTB-right", b, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.MatMulTB(g.Const(other), p)))
	})

	c := tensor.New(2, 6)
	c.Randn(rng, 1)
	gain := tensor.New(1, 6)
	gain.Randn(rng, 0.5)
	bias := tensor.New(1, 6)
	bias.Randn(rng, 0.5)
	check("LayerNorm-x", c, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.LayerNorm(p, g.Const(gain), g.Const(bias), 1e-5)))
	})
	check("LayerNorm-gain", gain, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.LayerNorm(g.Const(c), p, g.Const(bias), 1e-5)))
	})
	check("LayerNorm-bias", bias, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.LayerNorm(g.Const(c), g.Const(gain), p, 1e-5)))
	})

	d := tensor.New(2, 3)
	d.Randn(rng, 1)
	e := tensor.New(3, 3)
	e.Randn(rng, 1)
	check("ConcatRows+SliceRows", d, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		cat := g.ConcatRows(p, g.Const(e))
		return g.Mean(g.Square(g.SliceRows(cat, 1, 3)))
	})
	mask := tensor.New(2, 3)
	mask.Set(0, 1, -5)
	check("AddConst", d, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.AddConst(p, mask)))
	})
}
