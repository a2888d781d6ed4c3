package nn

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

// forwardColMatchesFull checks, for every column i, that the graph-level
// ForwardCol on the inputs of columns < i reproduces the column-i block of
// Forward+SliceCols on the zero-padded input: the logits, every parameter
// gradient, and the input gradient, to within 1e-12 relative. The loss
// weights the block by a random constant so no gradient entry vanishes by
// symmetry.
func forwardColMatchesFull(t *testing.T, b Backbone, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	full := tensor.New(batch, b.InDim())
	// Relaxed one-hots: a softmax-like positive row per column block, so
	// dense and sparse kernel paths both see realistic values.
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
		gRef.Backward(gRef.SumAll(gRef.MulElem(ref, gRef.Const(weights))))

		x := tensor.New(batch, off)
		for r := 0; r < batch; r++ {
			copy(x.Row(r), full.Row(r)[:off])
		}
		g := tensor.NewGraph()
		xCol := g.Param(x)
		got := b.ForwardCol(g, xCol, i)
		g.Backward(g.SumAll(g.MulElem(got, g.Const(weights))))

		if got.Val.Rows != batch || got.Val.Cols != size {
			t.Fatalf("column %d: ForwardCol gave %v, want %d×%d", i, got.Val, batch, size)
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
			for k, v := range want {
				hv := 0.0
				if k < off {
					hv = xCol.Grad.At(r, k)
				}
				if !near(v, hv) {
					t.Fatalf("column %d: input grad [%d,%d] is %v, want %v", i, r, k, hv, v)
				}
			}
		}
	}
}

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
		// a column's input prefix is shorter than its offset.
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
			forwardColMatchesFull(t, m, 9)
		})
	}
}

func TestTransformerForwardColMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := NewTransformer(rng, []int{4, 3, 5}, 8, 2, 16, 1)
	forwardColMatchesFull(t, tr, 3)
}

// TestMADEForwardColInputWidth pins the ForwardCol contract that x holds
// exactly the inputs of the columns before i.
func TestMADEForwardColInputWidth(t *testing.T) {
	m := NewMADE(rand.New(rand.NewSource(1)), []int{3, 4, 2}, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardCol accepted a full-width input")
		}
	}()
	g := tensor.NewGraph()
	m.ForwardCol(g, g.Const(tensor.New(2, m.InDim())), 1)
}
