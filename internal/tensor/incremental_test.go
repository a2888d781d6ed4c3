package tensor

import (
	"math/rand"
	"testing"
)

// TestMaskedLinearReLUIntoMatchesWindow builds a masked ReLU layer band by
// band into a Buffer, each band reading the input buffer's prefix, and
// checks values and gradients against the same bands computed by
// MaskedMatMulWindow, AddRowAt and ReLU on a plain input and copied side
// by side into a buffer.
func TestMaskedLinearReLUIntoMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := New(9, 8)
	w.Randn(rng, 0.6)
	mask := New(9, 8)
	suffixMask(rng, mask)
	bias := New(1, 8)
	bias.Randn(rng, 0.5)
	x := New(4, 9)
	x.Randn(rng, 1)
	cache := NewMaskedWeight(w, mask)
	weights := New(4, 8)
	weights.Randn(rng, 1)
	bands := [][3]int{{3, 0, 2}, {5, 2, 2}, {6, 2, 5}, {9, 5, 8}} // rowEnd, colOff, colEnd

	gRef := NewGraph()
	xRef := gRef.Param(x)
	ref := gRef.Buffer(4, 8)
	for _, b := range bands {
		if b[1] == b[2] {
			continue
		}
		band := gRef.ReLU(gRef.AddRowAt(gRef.MaskedMatMulWindow(xRef, gRef.Param(w), cache, b[0], b[1], b[2]), gRef.Param(bias), b[1]))
		gRef.CopyColsInto(ref, band, b[1])
	}
	gRef.Backward(gRef.Mean(gRef.MulElem(ref, gRef.Const(weights))))

	g := NewGraph()
	xs := g.Param(x)
	xb := g.Buffer(4, 9)
	g.CopyColsInto(xb, xs, 0)
	dst := g.Buffer(4, 8)
	for _, b := range bands {
		g.MaskedLinearReLUInto(dst, xb, g.Param(w), g.Param(bias), cache, b[0], b[1], b[2])
	}
	g.Backward(g.Mean(g.MulElem(dst, g.Const(weights))))

	for i := 0; i < 4; i++ {
		for _, b := range bands {
			for j := b[1]; j < b[2]; j++ {
				want := max(0, sumRowWindow(x, cache.Get(), i, b[0], j)+bias.Data[j])
				if got := dst.Val.At(i, j); !relClose(got, want, 1e-12) {
					t.Fatalf("band value [%d,%d] = %v, want %v", i, j, got, want)
				}
			}
		}
	}
	for name, pair := range map[string][2]*Tensor{
		"x": {xRef.Grad, xs.Grad}, "W": {gRef.ParamGrad(w), g.ParamGrad(w)}, "b": {gRef.ParamGrad(bias), g.ParamGrad(bias)},
	} {
		for k, v := range pair[0].Data {
			if !relClose(pair[1].Data[k], v, 1e-12) {
				t.Fatalf("%s grad[%d] = %v, want %v", name, k, pair[1].Data[k], v)
			}
		}
	}
}

// sumRowWindow returns Σ_{k<rowEnd} x[i,k]·mw[k,j].
func sumRowWindow(x, mw *Tensor, i, rowEnd, j int) float64 {
	var s float64
	for k := 0; k < rowEnd; k++ {
		s += x.At(i, k) * mw.At(k, j)
	}
	return s
}

// TestIncrementalOpContracts pins the shape checks of the buffer-writing
// ops.
func TestIncrementalOpContracts(t *testing.T) {
	w, mask := New(4, 3), New(4, 3)
	fill(mask, 1)
	cache := NewMaskedWeight(w, mask)
	cases := map[string]func(g *Graph){
		"CopyColsIntoRange": func(g *Graph) { g.CopyColsInto(g.Buffer(2, 3), g.Const(New(2, 2)), 2) },
		"CopyColsIntoRows":  func(g *Graph) { g.CopyColsInto(g.Buffer(2, 3), g.Const(New(3, 2)), 0) },
		"CopyColsIntoConst": func(g *Graph) { g.CopyColsInto(g.Const(New(2, 3)), g.Const(New(2, 2)), 0) },
		"BandWindow": func(g *Graph) {
			g.MaskedLinearReLUInto(g.Buffer(2, 3), g.Buffer(2, 4), g.Param(w), g.Param(New(1, 3)), cache, 5, 0, 3)
		},
		"BandDstWidth": func(g *Graph) {
			g.MaskedLinearReLUInto(g.Buffer(2, 2), g.Buffer(2, 4), g.Param(w), g.Param(New(1, 3)), cache, 4, 0, 2)
		},
		"BandWeight": func(g *Graph) {
			g.MaskedLinearReLUInto(g.Buffer(2, 3), g.Buffer(2, 4), g.Param(New(4, 3)), g.Param(New(1, 3)), cache, 4, 0, 3)
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn(NewGraph())
		}()
	}
}
