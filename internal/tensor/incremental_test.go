package tensor

import (
	"math/rand"
	"testing"
)

// TestMaskedLinearReLUIntoMatchesWindow builds a masked ReLU layer band by
// band into a Buffer, each band reading the input buffer's prefix, and
// checks values and gradients against the same bands computed by
// MaskedMatMulWindow, AddRowAt and ReLU on a plain input.
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
	var parts []*Node
	for _, b := range bands {
		if b[1] == b[2] {
			continue
		}
		parts = append(parts, gRef.ReLU(gRef.AddRowAt(gRef.MaskedMatMulWindow(xRef, gRef.Param(w), cache, b[0], b[1], b[2]), gRef.Param(bias), b[1])))
	}
	gRef.Backward(gRef.Mean(gRef.MulElem(gRef.ConcatCols(parts...), gRef.Const(weights))))

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

// TestAttendStepMatchesCausalAttention runs AttendStep once per position
// over keys and values that accumulate step by step and checks the
// outputs and gradients against full causal attention built from
// MatMulTB, a −1e30 causal mask, SoftmaxRows and MatMul on one sequence
// (one batch row) per graph.
func TestAttendStepMatchesCausalAttention(t *testing.T) {
	const rows, steps, d, heads = 3, 4, 6, 2
	dk := d / heads
	scale := 0.7
	rng := rand.New(rand.NewSource(9))
	q, k, v := New(rows*steps, d), New(rows*steps, d), New(rows*steps, d) // row r·steps+j: row r, position j
	for _, m := range []*Tensor{q, k, v} {
		m.Randn(rng, 1)
	}
	weights := New(rows*steps, d)
	weights.Randn(rng, 1)
	causal := New(steps, steps)
	for i := 0; i < steps; i++ {
		for j := i + 1; j < steps; j++ {
			causal.Set(i, j, -1e30)
		}
	}

	// Step form: position j of every row is one rows×d node.
	g := NewGraph()
	qn, kn, vn := g.Param(q), g.Param(k), g.Param(v)
	pos := func(n *Node, j int) *Node {
		out := New(rows, d)
		for r := 0; r < rows; r++ {
			copy(out.Row(r), n.Val.Row(r*steps+j))
		}
		return g.Param(out)
	}
	var qs, ks, vs, outs []*Node
	for j := 0; j < steps; j++ {
		qs, ks, vs = append(qs, pos(qn, j)), append(ks, pos(kn, j)), append(vs, pos(vn, j))
		outs = append(outs, g.AttendStep(qs[j], ks, vs, heads, scale))
	}
	// Concatenated, the step outputs hold row r's positions side by side,
	// which is weights read as rows × (steps·d).
	g.Backward(g.Mean(g.MulElem(g.ConcatCols(outs...), g.Const(FromSlice(rows, steps*d, weights.Data)))))

	for r := 0; r < rows; r++ {
		gRef := NewGraph()
		qr := gRef.Param(FromSlice(steps, d, append([]float64(nil), q.Data[r*steps*d:(r+1)*steps*d]...)))
		kr := gRef.Param(FromSlice(steps, d, append([]float64(nil), k.Data[r*steps*d:(r+1)*steps*d]...)))
		vr := gRef.Param(FromSlice(steps, d, append([]float64(nil), v.Data[r*steps*d:(r+1)*steps*d]...)))
		headOuts := make([]*Node, 0, heads)
		for h := 0; h < heads; h++ {
			qh, kh, vh := gRef.SliceCols(qr, h*dk, dk), gRef.SliceCols(kr, h*dk, dk), gRef.SliceCols(vr, h*dk, dk)
			probs := gRef.SoftmaxRows(gRef.AddConst(gRef.Scale(gRef.MatMulTB(qh, kh), scale), causal))
			headOuts = append(headOuts, gRef.MatMul(probs, vh))
		}
		ref := gRef.ConcatCols(headOuts...)
		wr := FromSlice(steps, d, append([]float64(nil), weights.Data[r*steps*d:(r+1)*steps*d]...))
		// One row's Mean spans 1/rows of the step form's, so scale to match.
		gRef.Backward(gRef.Scale(gRef.Mean(gRef.MulElem(ref, gRef.Const(wr))), 1/float64(rows)))
		for j := 0; j < steps; j++ {
			check := func(what string, want, got []float64) {
				for c := range want {
					if !relClose(got[c], want[c], 1e-12) {
						t.Fatalf("row %d position %d: %s[%d] = %v, want %v", r, j, what, c, got[c], want[c])
					}
				}
			}
			check("output", ref.Val.Row(j), outs[j].Val.Row(r))
			check("dq", qr.Grad.Row(j), qs[j].Grad.Row(r))
			check("dk", kr.Grad.Row(j), ks[j].Grad.Row(r))
			check("dv", vr.Grad.Row(j), vs[j].Grad.Row(r))
		}
	}
}

// TestIncrementalOpContracts pins the shape checks of the buffer-writing
// and attention-step ops.
func TestIncrementalOpContracts(t *testing.T) {
	w, mask := New(4, 3), New(4, 3)
	mask.Fill(1)
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
		"AttendHeads": func(g *Graph) {
			x := g.Const(New(2, 3))
			g.AttendStep(x, []*Node{x}, []*Node{x}, 2, 1)
		},
		"AttendShapes": func(g *Graph) {
			x := g.Const(New(2, 4))
			g.AttendStep(x, []*Node{x}, []*Node{g.Const(New(2, 2))}, 2, 1)
		},
		"AttendEmpty": func(g *Graph) { g.AttendStep(g.Const(New(2, 4)), nil, nil, 2, 1) },
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
