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

	base := make([]float64, inWidth(colSizes))
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

// TestTransformerBatchedForward checks that the rows of a batched chain
// are independent sequences: each row's logits equal those of a one-row
// chain over that row alone.
func TestTransformerBatchedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	colSizes := []int{3, 3}
	tr := NewTransformer(rng, colSizes, 8, 1, 16, 1)
	rows := make([][]float64, 4)
	for b := range rows {
		rows[b] = make([]float64, inWidth(colSizes))
		for i, off := range tr.Offsets() {
			rows[b][off+(b+i)%colSizes[i]] = 1
		}
	}
	batched := chainRows(tr, rows)
	for b, row := range rows {
		single := chainRows(tr, [][]float64{row})[0]
		if len(batched[b]) != len(single) {
			t.Fatalf("batch row %d has %d logits, standalone %d", b, len(batched[b]), len(single))
		}
		for j, v := range single {
			if math.Abs(v-batched[b][j]) > 1e-12 {
				t.Fatalf("batch row %d differs from standalone chain", b)
			}
		}
	}
}

// TestTransformerGradientsFlow runs one chain pass and requires every
// parameter to get a finite gradient, and some gradient to be nonzero.
func TestTransformerGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	colSizes := []int{3, 4}
	tr := NewTransformer(rng, colSizes, 8, 2, 16, 1)
	g := tensor.NewGraph()
	chain := tr.NewChain()
	chain.Reset(g, 2)
	first := chain.Next(nil)
	y := tensor.New(2, colSizes[0])
	for b := 0; b < 2; b++ {
		y.Set(b, rng.Intn(colSizes[0]), 1)
	}
	second := chain.Next(g.Const(y))
	loss := g.Add(g.Mean(g.Square(first)), g.Mean(g.Square(second)))
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
	trainSimpleDistribution(tr, colSizes, NewAdam(0.02), 250)

	bi := tr.NewBatchInference(1)
	for v := 0; v < 2; v++ {
		x := make([]float64, inWidth(colSizes))
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
	// Finite-difference checks for generic ops the transformer chain
	// relies on (AttendStep has its own in the tensor package).
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

	d := tensor.New(3, 3)
	d.Randn(rng, 1)
	check("SliceRows", d, func(g *tensor.Graph, p *tensor.Node) *tensor.Node {
		return g.Mean(g.Square(g.SliceRows(p, 1, 2)))
	})
}
