package tensor

import (
	"math"
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

// causalAttention is the plain-loop reference for AttendStep: for one
// sequence of positions 0..t (q, k and v each one row of d per position),
// it returns position t's multi-head causal attention output.
func causalAttention(q []float64, k, v [][]float64, heads int, scale float64) []float64 {
	d := len(q)
	dk := d / heads
	out := make([]float64, d)
	for h := 0; h < heads; h++ {
		lo, hi := h*dk, (h+1)*dk
		scores := make([]float64, len(k))
		top := math.Inf(-1)
		for j := range k {
			for c := lo; c < hi; c++ {
				scores[j] += q[c] * k[j][c]
			}
			scores[j] *= scale
			top = math.Max(top, scores[j])
		}
		var mass float64
		for j := range scores {
			scores[j] = math.Exp(scores[j] - top)
			mass += scores[j]
		}
		for j := range v {
			for c := lo; c < hi; c++ {
				out[c] += scores[j] / mass * v[j][c]
			}
		}
	}
	return out
}

// TestAttendStepMatchesCausalAttention runs AttendStep once per position
// over keys and values that accumulate step by step. Its outputs must
// match causalAttention, a plain loop over each sequence, and its
// gradients into the queries, keys and values of every position must match
// central finite differences of the loss.
func TestAttendStepMatchesCausalAttention(t *testing.T) {
	const rows, steps, d, heads = 3, 4, 6, 2
	scale := 0.7
	rng := rand.New(rand.NewSource(9))
	// Row j·rows+r of q, k and v holds sequence r's position j, so
	// position j of every sequence is the row block SliceRows(·, j·rows, rows).
	q, k, v := New(steps*rows, d), New(steps*rows, d), New(steps*rows, d)
	for _, m := range []*Tensor{q, k, v} {
		m.Randn(rng, 1)
	}
	weights := New(rows, d)
	weights.Randn(rng, 1)
	// attend builds the step form on g over the three nodes and returns
	// every position's output.
	attend := func(g *Graph, qn, kn, vn *Node) []*Node {
		var ks, vs, outs []*Node
		for j := 0; j < steps; j++ {
			ks = append(ks, g.SliceRows(kn, j*rows, rows))
			vs = append(vs, g.SliceRows(vn, j*rows, rows))
			outs = append(outs, g.AttendStep(g.SliceRows(qn, j*rows, rows), ks, vs, heads, scale))
		}
		return outs
	}

	g := NewGraph()
	outs := attend(g, g.Const(q), g.Const(k), g.Const(v))
	for r := 0; r < rows; r++ {
		var ks, vs [][]float64
		for j := 0; j < steps; j++ {
			ks, vs = append(ks, k.Row(j*rows+r)), append(vs, v.Row(j*rows+r))
			want := causalAttention(q.Row(j*rows+r), ks, vs, heads, scale)
			for c, got := range outs[j].Val.Row(r) {
				if !relClose(got, want[c], 1e-12) {
					t.Fatalf("sequence %d position %d: output[%d] = %v, want %v", r, j, c, got, want[c])
				}
			}
		}
	}

	// The loss weights every position's output differently, so no
	// gradient vanishes by symmetry.
	loss := func(g *Graph, outs []*Node) *Node {
		var sum *Node
		for j, o := range outs {
			term := g.Scale(g.Mean(g.MulElem(o, g.Const(weights))), float64(j+1))
			if sum == nil {
				sum = term
			} else {
				sum = g.Add(sum, term)
			}
		}
		return sum
	}
	gradCheck(t, q, func(g *Graph, p *Node) *Node { return loss(g, attend(g, p, g.Const(k), g.Const(v))) })
	gradCheck(t, k, func(g *Graph, p *Node) *Node { return loss(g, attend(g, g.Const(q), p, g.Const(v))) })
	gradCheck(t, v, func(g *Graph, p *Node) *Node { return loss(g, attend(g, g.Const(q), g.Const(k), p)) })
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
