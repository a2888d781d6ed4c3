package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sam/internal/tensor"
)

// chainMatchesFull checks a backbone's incremental Chain against the full
// Forward: for every column i it drives Reset and Next over columns 0..i
// on relaxed one-hot samples (each sample a Param, so input gradients are
// observable) and checks that column i's block reproduces the column-i
// block of Forward+SliceCols on the zero-padded prefix — the logits, every
// parameter gradient, and every input gradient, to within 1e-12 relative.
// The loss weights the block by a random constant so no gradient entry
// vanishes by symmetry.
func chainMatchesFull(t *testing.T, b Backbone, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	full := tensor.New(batch, b.InDim())
	// Relaxed one-hots: a positive row per column block with a dominant
	// entry, so dense and sparse kernel paths both see realistic values.
	for r := 0; r < batch; r++ {
		for c, off := range b.Offsets() {
			blk := full.Row(r)[off : off+b.ColSizes()[c]]
			blk[rng.Intn(len(blk))] = 1
			for j := range blk {
				if rng.Intn(4) == 0 {
					blk[j] += rng.Float64()
				}
			}
		}
	}
	near := func(a, c float64) bool {
		return math.Abs(a-c) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(c)))
	}
	chain := b.NewChain() // reused across columns, as training reuses it
	g := tensor.NewGraph()
	for i, off := range b.Offsets() {
		size := b.ColSizes()[i]
		weights := tensor.New(batch, size)
		weights.Randn(rng, 1)

		prefix := tensor.New(batch, b.InDim())
		for r := 0; r < batch; r++ {
			copy(prefix.Row(r)[:off], full.Row(r)[:off])
		}
		gRef := tensor.NewGraph()
		xRef := gRef.Param(prefix)
		ref := gRef.SliceCols(b.Forward(gRef, xRef), off, size)
		gRef.Backward(gRef.Mean(gRef.MulElem(ref, gRef.Const(weights))))

		g.Reset()
		chain.Reset(g, batch)
		samples := make([]*tensor.Node, i)
		var got *tensor.Node
		for c := 0; c <= i; c++ {
			var y *tensor.Node
			if c > 0 {
				s := tensor.New(batch, b.ColSizes()[c-1])
				for r := 0; r < batch; r++ {
					copy(s.Row(r), full.Row(r)[b.Offsets()[c-1]:])
				}
				y = g.Param(s)
				samples[c-1] = y
			}
			got = chain.Next(y)
		}
		g.Backward(g.Mean(g.MulElem(got, g.Const(weights))))

		if got.Val.Rows != batch || got.Val.Cols != size {
			t.Fatalf("column %d: Next gave %v, want %d×%d", i, got.Val, batch, size)
		}
		for k, v := range ref.Val.Data {
			if !near(v, got.Val.Data[k]) {
				t.Fatalf("column %d: logit %d is %v, want %v", i, k, got.Val.Data[k], v)
			}
		}
		for pi, p := range b.Params() {
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
				cOff := b.Offsets()[c]
				for k, hv := range s.Grad.Row(r) {
					if v := want[cOff+k]; !near(v, hv) {
						t.Fatalf("column %d: input grad [%d,%d] is %v, want %v", i, r, cOff+k, hv, v)
					}
				}
			}
			for k := off; k < b.InDim(); k++ {
				if want[k] != 0 {
					t.Fatalf("column %d: reference grad of unsampled input %d is %v", i, k, want[k])
				}
			}
		}
	}
}

// TestMADEForwardColMatchesForward checks MADE's chain — column i's
// forward pass as Chain.Next computes it, one band of hidden units per
// step — against Forward.
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
			chainMatchesFull(t, m, 9)
		})
	}
}

// TestTransformerForwardColMatchesForward checks the transformer's chain —
// one batched token per step, attending over the keys and values earlier
// steps left on the tape — against the per-row Forward.
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
			chainMatchesFull(t, tr, 3)
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
		expectPanic("a full-width sample", "wants a 2×3 sample", next(-1), next(b.InDim()))
		expectPanic("a missing sample", "needs the sample of column 0", next(-1), next(-1))
		expectPanic("a sample at column 0", "takes no sample", next(3))
		expectPanic("a step past the last column", "past the last", next(-1), next(3), next(4), next(2))
	}
}
