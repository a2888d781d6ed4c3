package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sam/internal/tensor"
)

// relaxedRows returns batch rows of relaxed one-hots over the column
// blocks: a dominant entry per block plus some positive noise, so dense
// and sparse kernel paths both see realistic values.
func relaxedRows(rng *rand.Rand, colSizes []int, batch int) *tensor.Tensor {
	full := tensor.New(batch, inWidth(colSizes))
	for r := 0; r < batch; r++ {
		off := 0
		for _, size := range colSizes {
			blk := full.Row(r)[off : off+size]
			blk[rng.Intn(len(blk))] = 1
			for j := range blk {
				if rng.Intn(4) == 0 {
					blk[j] += rng.Float64()
				}
			}
			off += size
		}
	}
	return full
}

// runChain drives Reset and Next over columns 0..last of b on g, each
// sample a Param holding that column's block of full, so input gradients
// are observable. It returns every column's logits and the sample nodes.
func runChain(g *tensor.Graph, chain Chain, b Backbone, colSizes []int, full *tensor.Tensor, last int) (logits, samples []*tensor.Node) {
	chain.Reset(g, full.Rows)
	var y *tensor.Node
	for c := 0; c <= last; c++ {
		if c > 0 {
			s := tensor.New(full.Rows, colSizes[c-1])
			for r := 0; r < full.Rows; r++ {
				copy(s.Row(r), full.Row(r)[b.Offsets()[c-1]:])
			}
			y = g.Param(s)
			samples = append(samples, y)
		}
		logits = append(logits, chain.Next(y))
	}
	return logits, samples
}

// near reports whether a and c agree to within 1e-12 relative to the
// larger magnitude (absolute near zero).
func near(a, c float64) bool {
	return math.Abs(a-c) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(c)))
}

// madeReference is MADE's full-width forward built from generic autodiff
// ops only — MatMul(h, MulElem(W, Const(Mask))), AddRow and ReLU — none
// of which the chain runs: batch×Σ colSizes inputs in, logits of every
// column block out.
func madeReference(g *tensor.Graph, m *MADE, x *tensor.Node) *tensor.Node {
	h := x
	for i, l := range m.layers {
		h = g.AddRow(g.MatMul(h, g.MulElem(g.Param(l.W), g.Const(l.Mask))), g.Param(l.B))
		if i != len(m.layers)-1 {
			h = g.ReLU(h)
		}
	}
	return h
}

// madeChainMatchesReference checks MADE's incremental Chain against
// madeReference: for every column i it drives the chain over columns 0..i
// on relaxed one-hot samples and checks that column i's block reproduces
// the column-i block of the reference on the zero-padded prefix — the
// logits, every parameter gradient, and every input gradient, to within
// 1e-12 relative. The loss weights the block by a random constant so no
// gradient entry vanishes by symmetry.
func madeChainMatchesReference(t *testing.T, m *MADE, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	full := relaxedRows(rng, m.colSizes, batch)
	chain := m.NewChain() // reused across columns, as training reuses it
	g := tensor.NewGraph()
	for i, off := range m.offsets {
		size := m.colSizes[i]
		weights := tensor.New(batch, size)
		weights.Randn(rng, 1)

		prefix := tensor.New(batch, m.inDim)
		for r := 0; r < batch; r++ {
			copy(prefix.Row(r)[:off], full.Row(r)[:off])
		}
		gRef := tensor.NewGraph()
		xRef := gRef.Param(prefix)
		ref := gRef.SliceCols(madeReference(gRef, m, xRef), off, size)
		gRef.Backward(gRef.Mean(gRef.MulElem(ref, gRef.Const(weights))))

		g.Reset()
		logits, samples := runChain(g, chain, m, m.colSizes, full, i)
		got := logits[i]
		g.Backward(g.Mean(g.MulElem(got, g.Const(weights))))

		if got.Val.Rows != batch || got.Val.Cols != size {
			t.Fatalf("column %d: Next gave %v, want %d×%d", i, got.Val, batch, size)
		}
		for k, v := range ref.Val.Data {
			if !near(v, got.Val.Data[k]) {
				t.Fatalf("column %d: logit %d is %v, want %v", i, k, got.Val.Data[k], v)
			}
		}
		for pi, p := range m.Params() {
			want, have := gRef.ParamGrad(p), g.ParamGrad(p)
			for k, v := range want.Data {
				hv := 0.0
				if have != nil {
					hv = have.Data[k]
				}
				if !near(v, hv) {
					t.Fatalf("column %d: param %d grad[%d] is %v, want %v", i, pi, k, hv, v)
				}
			}
		}
		for r := 0; r < batch; r++ {
			want := xRef.Grad.Row(r)
			for c, s := range samples {
				cOff := m.offsets[c]
				for k, hv := range s.Grad.Row(r) {
					if v := want[cOff+k]; !near(v, hv) {
						t.Fatalf("column %d: input grad [%d,%d] is %v, want %v", i, r, cOff+k, hv, v)
					}
				}
			}
			for k := off; k < m.inDim; k++ {
				if want[k] != 0 {
					t.Fatalf("column %d: reference grad of unsampled input %d is %v", i, k, want[k])
				}
			}
		}
	}
}

// transformerReference is a plain-loop forward pass of t over one input
// row x (Σ colSizes wide), sharing no code with the chain or the batched
// engine: it embeds the start token and the blocks of columns 0..n−2,
// runs every pre-norm block with full causal attention over the whole
// sequence, and returns the logits row whose block i comes from
// position i.
func transformerReference(t *Transformer, x []float64) []float64 {
	n, d, dk := len(t.colSizes), t.dModel, t.dk
	// vecMat returns v·w + bias (bias may be nil).
	vecMat := func(v []float64, w *tensor.Tensor, bias []float64) []float64 {
		out := make([]float64, w.Cols)
		for c := range out {
			if bias != nil {
				out[c] = bias[c]
			}
			for k, vk := range v {
				out[c] += vk * w.At(k, c)
			}
		}
		return out
	}
	norm := func(v []float64, gain, bias *tensor.Tensor) []float64 {
		var mean, variance float64
		for _, e := range v {
			mean += e / float64(len(v))
		}
		for _, e := range v {
			variance += (e - mean) * (e - mean) / float64(len(v))
		}
		out := make([]float64, len(v))
		for c, e := range v {
			out[c] = (e-mean)/math.Sqrt(variance+1e-5)*gain.Data[c] + bias.Data[c]
		}
		return out
	}
	h := make([][]float64, n)
	for i := range h {
		h[i] = append([]float64(nil), t.pos.Row(i)...)
		if i == 0 {
			for c := range h[i] {
				h[i][c] += t.sos.Data[c]
			}
			continue
		}
		for k := t.offsets[i-1]; k < t.offsets[i-1]+t.colSizes[i-1]; k++ {
			for c, w := range t.wEmb.Row(k) {
				h[i][c] += x[k] * w
			}
		}
	}
	for _, l := range t.layers {
		q, k, v := make([][]float64, n), make([][]float64, n), make([][]float64, n)
		for i := range h {
			a := norm(h[i], l.ln1Gain, l.ln1Bias)
			q[i], k[i], v[i] = vecMat(a, l.wq, nil), vecMat(a, l.wk, nil), vecMat(a, l.wv, nil)
		}
		for i := range h {
			ctx := make([]float64, d)
			for hd := 0; hd < t.heads; hd++ {
				lo, hi := hd*dk, (hd+1)*dk
				scores := make([]float64, i+1)
				var mass float64
				for j := range scores {
					for c := lo; c < hi; c++ {
						scores[j] += q[i][c] * k[j][c]
					}
					scores[j] = math.Exp(scores[j] / math.Sqrt(float64(dk)))
					mass += scores[j]
				}
				for j, s := range scores {
					for c := lo; c < hi; c++ {
						ctx[c] += s / mass * v[j][c]
					}
				}
			}
			for c, e := range vecMat(ctx, l.wo, nil) {
				h[i][c] += e
			}
			f := vecMat(norm(h[i], l.ln2Gain, l.ln2Bias), l.w1, l.b1.Data)
			for c := range f {
				f[c] = math.Max(f[c], 0)
			}
			for c, e := range vecMat(f, l.w2, l.b2.Data) {
				h[i][c] += e
			}
		}
	}
	out := make([]float64, 0, t.inDim)
	for i := range h {
		logits := vecMat(norm(h[i], t.lnFGain, t.lnFBias), t.wOut, t.bOut.Data)
		out = append(out, logits[t.offsets[i]:t.offsets[i]+t.colSizes[i]]...)
	}
	return out
}

// transformerChainMatchesReference checks the transformer's incremental
// Chain against transformerReference. Values: for every column i, the
// chain driven over columns 0..i must reproduce column i's block of the
// reference to within 1e-12 relative. Gradients: one chain pass over all
// columns, under a loss that weights every logit by a random constant,
// must give every parameter and every input entry the gradient that
// central finite differences of the reference's loss give.
func transformerChainMatchesReference(t *testing.T, tr *Transformer, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	full := relaxedRows(rng, tr.colSizes, batch)
	last := len(tr.colSizes) - 1
	ref := make([][]float64, batch)
	for r := range ref {
		ref[r] = transformerReference(tr, full.Row(r))
	}
	chain := tr.NewChain() // reused across columns, as training reuses it
	g := tensor.NewGraph()
	for i, off := range tr.offsets {
		g.Reset()
		logits, _ := runChain(g, chain, tr, tr.colSizes, full, i)
		for r := 0; r < batch; r++ {
			want := ref[r][off : off+tr.colSizes[i]]
			for k, v := range logits[i].Val.Row(r) {
				if !near(want[k], v) {
					t.Fatalf("column %d row %d: logit %d is %v, want %v", i, r, k, v, want[k])
				}
			}
		}
	}

	weights := tensor.New(batch, tr.inDim)
	weights.Randn(rng, 1)
	refLoss := func() float64 {
		var s float64
		for r := 0; r < batch; r++ {
			for k, v := range transformerReference(tr, full.Row(r)) {
				s += v * weights.At(r, k)
			}
		}
		return s / float64(batch)
	}
	g.Reset()
	logits, samples := runChain(g, chain, tr, tr.colSizes, full, last)
	var loss *tensor.Node
	for i, l := range logits {
		w := tensor.New(batch, tr.colSizes[i])
		for r := 0; r < batch; r++ {
			copy(w.Row(r), weights.Row(r)[tr.offsets[i]:])
		}
		term := g.Scale(g.Mean(g.MulElem(l, g.Const(w))), float64(tr.colSizes[i]))
		if loss == nil {
			loss = term
		} else {
			loss = g.Add(loss, term)
		}
	}
	g.Backward(loss)
	if got, want := loss.Val.Data[0], refLoss(); !near(got, want) {
		t.Fatalf("chain loss %v, reference loss %v", got, want)
	}
	// numeric perturbs *v by ±h and returns the central difference.
	numeric := func(v *float64) float64 {
		const h = 1e-6
		orig := *v
		*v = orig + h
		lp := refLoss()
		*v = orig - h
		lm := refLoss()
		*v = orig
		return (lp - lm) / (2 * h)
	}
	check := func(what string, analytic float64, v *float64) {
		t.Helper()
		if num := numeric(v); math.Abs(num-analytic) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("%s: analytic gradient %v, finite difference %v", what, analytic, num)
		}
	}
	for pi, p := range tr.Params() {
		grad := g.ParamGrad(p)
		for k := range p.Data {
			check(fmt.Sprintf("param %d[%d]", pi, k), grad.Data[k], &p.Data[k])
		}
	}
	for c, s := range samples {
		for r := 0; r < batch; r++ {
			for k := 0; k < tr.colSizes[c]; k++ {
				check(fmt.Sprintf("input [%d,%d]", r, tr.offsets[c]+k), s.Grad.At(r, k), &full.Row(r)[tr.offsets[c]+k])
			}
		}
	}
}

// TestMADEForwardColMatchesForward checks MADE's chain — column i's
// forward pass as Chain.Next computes it, one band of hidden units per
// step — against madeReference, the full-width forward built from generic
// autodiff ops.
func TestMADEForwardColMatchesForward(t *testing.T) {
	cases := []struct {
		name              string
		colSizes          []int
		hidden, numHidden int
	}{
		// The IMDB join layout's column sizes (4 to 500 bins).
		{"imdb", []int{7, 77, 32, 11, 32, 4, 32, 71, 32, 5, 32, 500}, 64, 2},
		{"one-layer", []int{6, 3, 9, 2}, 16, 1},
		{"single-column", []int{5}, 8, 2},
		// Fewer hidden units than columns: some degrees have no unit, so
		// some steps add an empty band.
		{"hidden<ncols", []int{3, 2, 4, 2, 5, 3, 2, 4, 3}, 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			m := NewMADE(rng, tc.colSizes, tc.hidden, tc.numHidden)
			// Random biases so the bias-block path of column 0 is checked.
			for _, l := range m.layers {
				l.B.Randn(rng, 0.3)
			}
			madeChainMatchesReference(t, m, 9)
		})
	}
}

// TestTransformerForwardColMatchesForward checks the transformer's chain —
// one batched token per step, attending over the keys and values earlier
// steps left on the tape — against transformerReference, a plain-loop
// full-width forward per row: values to 1e-12, gradients against central
// finite differences.
func TestTransformerForwardColMatchesForward(t *testing.T) {
	cases := []struct {
		name           string
		layers, heads  int
		colSizes       []int
		dModel, ffSize int
	}{
		{"1-layer-1-head", 1, 1, []int{4, 3, 5}, 8, 16},
		{"1-layer-2-heads", 1, 2, []int{4, 3, 5, 2}, 8, 16},
		{"2-layers-1-head", 2, 1, []int{2, 6, 3}, 6, 12},
		{"2-layers-2-heads", 2, 2, []int{7, 3, 4, 2, 5}, 8, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			tr := NewTransformer(rng, tc.colSizes, tc.dModel, tc.heads, tc.ffSize, tc.layers)
			// Non-trivial LayerNorm gains and biases.
			for _, p := range tr.Params() {
				if p.Rows == 1 {
					p.Randn(rng, 0.5)
				}
			}
			transformerChainMatchesReference(t, tr, 3)
		})
	}
}

// TestMADEForwardColInputWidth pins the chain contract: Next takes exactly
// the sample of the previous column, so a sample of the wrong width, a
// missing sample, a sample at column 0 and a step past the last column
// all panic — for both backbones.
func TestMADEForwardColInputWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	backbones := map[string]Backbone{
		"made":        NewMADE(rng, []int{3, 4, 2}, 8, 1),
		"transformer": NewTransformer(rng, []int{3, 4, 2}, 4, 1, 8, 1),
	}
	for name, b := range backbones {
		expectPanic := func(what, want string, steps ...func(c Chain, g *tensor.Graph)) {
			t.Helper()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: %s did not panic", name, what)
				}
				if msg, _ := r.(string); !strings.Contains(msg, want) {
					t.Fatalf("%s: %s panicked with %v, want %q", name, what, r, want)
				}
			}()
			g := tensor.NewGraph()
			c := b.NewChain()
			c.Reset(g, 2)
			for _, s := range steps {
				s(c, g)
			}
		}
		next := func(cols int) func(Chain, *tensor.Graph) {
			return func(c Chain, g *tensor.Graph) {
				var y *tensor.Node
				if cols >= 0 {
					y = g.Const(tensor.New(2, cols))
				}
				c.Next(y)
			}
		}
		expectPanic("a full-width sample", "wants a 2×3 sample", next(-1), next(9))
		expectPanic("a missing sample", "needs the sample of column 0", next(-1), next(-1))
		expectPanic("a sample at column 0", "takes no sample", next(3))
		expectPanic("a step past the last column", "past the last", next(-1), next(3), next(4), next(2))
	}
}
