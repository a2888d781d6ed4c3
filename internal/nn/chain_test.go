package nn

import (
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
func runChain(g *tensor.Graph, chain *Chain, b *MADE, colSizes []int, full *tensor.Tensor, last int) (logits, samples []*tensor.Node) {
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
// ops — MatMul(h, MulElem(W, Const(Mask))), AddRowAt and ReLU — none of
// which but AddRowAt the chain runs: batch×Σ colSizes inputs in, logits of
// every column block out.
func madeReference(g *tensor.Graph, m *MADE, x *tensor.Node) *tensor.Node {
	h := x
	for i, l := range m.layers {
		h = g.AddRowAt(g.MatMul(h, g.MulElem(g.Param(l.W), g.Const(l.Mask))), g.Param(l.B), 0)
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
// gradient entry vanishes by symmetry; the reference's loss weights its
// full width by the same constants on column i's block, scaled by
// inDim/size so its mean matches, and by zero elsewhere.
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
		refWeights := tensor.New(batch, m.inDim)
		for r := 0; r < batch; r++ {
			for k, w := range weights.Row(r) {
				refWeights.Set(r, off+k, w*float64(m.inDim)/float64(size))
			}
		}

		prefix := tensor.New(batch, m.inDim)
		for r := 0; r < batch; r++ {
			copy(prefix.Row(r)[:off], full.Row(r)[:off])
		}
		gRef := tensor.NewGraph()
		xRef := gRef.Param(prefix)
		ref := madeReference(gRef, m, xRef)
		gRef.Backward(gRef.Mean(gRef.MulElem(ref, gRef.Const(refWeights))))

		g.Reset()
		logits, samples := runChain(g, chain, m, m.colSizes, full, i)
		got := logits[i]
		g.Backward(g.Mean(g.MulElem(got, g.Const(weights))))

		if got.Val.Rows != batch || got.Val.Cols != size {
			t.Fatalf("column %d: Next gave %v, want %d×%d", i, got.Val, batch, size)
		}
		for r := 0; r < batch; r++ {
			for k, v := range ref.Val.Row(r)[off : off+size] {
				if hv := got.Val.At(r, k); !near(v, hv) {
					t.Fatalf("column %d: logit [%d,%d] is %v, want %v", i, r, k, hv, v)
				}
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

// TestMADEForwardColInputWidth pins the chain contract: Next takes exactly
// the sample of the previous column, so a sample of the wrong width, a
// missing sample, a sample at column 0 and a step past the last column
// all panic.
func TestMADEForwardColInputWidth(t *testing.T) {
	m := NewMADE(rand.New(rand.NewSource(1)), []int{3, 4, 2}, 8, 1)
	expectPanic := func(what, want string, steps ...func(c *Chain, g *tensor.Graph)) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s panicked with %v, want %q", what, r, want)
			}
		}()
		g := tensor.NewGraph()
		c := m.NewChain()
		c.Reset(g, 2)
		for _, s := range steps {
			s(c, g)
		}
	}
	next := func(cols int) func(*Chain, *tensor.Graph) {
		return func(c *Chain, g *tensor.Graph) {
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
