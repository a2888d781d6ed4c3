package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// suffixMask fills mask MADE-style: each row's nonzeros are one suffix,
// with starts nondecreasing down the rows (sorted degrees).
func suffixMask(rng *rand.Rand, mask *Tensor) {
	start := 0
	for r := 0; r < mask.Rows; r++ {
		start += rng.Intn(3)
		for c := min(start, mask.Cols); c < mask.Cols; c++ {
			mask.Set(r, c, 1)
		}
	}
}

// relClose reports whether a and b agree to within tol relative to the
// larger magnitude (absolute near zero).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestMaskedMatMulWindowMatchesReference checks the windowed op against
// the composition of plain ops it stands for —
// SliceCols(SliceCols(x)·SliceRows(W⊙M), colOff, width) — forward and
// backward, across mask styles, windows that clip spans on both sides,
// an input wider than the window, and empty windows.
func TestMaskedMatMulWindowMatchesReference(t *testing.T) {
	masks := map[string]func(rng *rand.Rand, m *Tensor){
		"suffix": suffixMask,
		"random": func(rng *rand.Rand, m *Tensor) {
			for i := range m.Data {
				if rng.Intn(2) == 1 {
					m.Data[i] = 1
				}
			}
		},
	}
	const batch, in, out = 9, 37, 29
	windows := []struct{ xCols, rowEnd, colOff, colEnd int }{
		{in, in, 0, out},  // the full product
		{in, 21, 5, 18},   // interior window
		{30, 13, 0, 7},    // input wider than the window's rows
		{in, in, 26, out}, // narrow tail block
		{4, 0, 3, 9},      // no rows: the window is all zeros
		{in, 17, 11, 11},  // no columns
	}
	for name, fill := range masks {
		for _, wd := range windows {
			rng := rand.New(rand.NewSource(3))
			w := New(in, out)
			w.Randn(rng, 0.7)
			mask := New(in, out)
			fill(rng, mask)
			x := New(batch, wd.xCols)
			x.Randn(rng, 1)
			for i := range x.Data {
				if rng.Intn(3) == 0 {
					x.Data[i] = 0
				}
			}
			cache := NewMaskedWeight(w, mask)
			width := wd.colEnd - wd.colOff

			gRef := NewGraph()
			xr, wr := gRef.Param(x), gRef.Param(w)
			mm := gRef.MatMul(gRef.SliceCols(xr, 0, wd.rowEnd), gRef.SliceRows(gRef.MulElem(wr, gRef.Const(mask)), 0, wd.rowEnd))
			outRef := gRef.SliceCols(mm, wd.colOff, width)
			gRef.Backward(gRef.Mean(gRef.Square(outRef)))

			gWin := NewGraph()
			xw, ww := gWin.Param(x), gWin.Param(w)
			outWin := gWin.MaskedMatMulWindow(xw, ww, cache, wd.rowEnd, wd.colOff, wd.colEnd)
			gWin.Backward(gWin.Mean(gWin.Square(outWin)))

			if outWin.Val.Rows != batch || outWin.Val.Cols != width {
				t.Fatalf("%s %+v: output %v, want %d×%d", name, wd, outWin.Val, batch, width)
			}
			check := func(what string, ref, got []float64) {
				t.Helper()
				for i := range ref {
					if !relClose(ref[i], got[i], 1e-12) {
						t.Fatalf("%s %+v: %s mismatch at %d: %v vs %v", name, wd, what, i, ref[i], got[i])
					}
				}
			}
			check("forward", outRef.Val.Data, outWin.Val.Data)
			check("dX", xr.Grad.Data, xw.Grad.Data)
			check("dW", wr.Grad.Data, ww.Grad.Data)
		}
	}
}

// TestMaskedMatMulWindowGradCheck verifies the windowed op's weight and
// input gradients against central finite differences.
func TestMaskedMatMulWindowGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := New(9, 8)
	w.Randn(rng, 0.6)
	mask := New(9, 8)
	suffixMask(rng, mask)
	x := New(3, 11)
	x.Randn(rng, 1)
	cache := NewMaskedWeight(w, mask)
	loss := func(g *Graph, xn, wn *Node) *Node {
		w.MarkDirty()
		return g.Mean(g.Square(g.MaskedMatMulWindow(xn, wn, cache, 7, 2, 6)))
	}
	gradCheck(t, w, func(g *Graph, p *Node) *Node { return loss(g, g.Const(x), p) })
	gradCheck(t, x, func(g *Graph, p *Node) *Node { return loss(g, p, g.Param(w)) })
}

// TestKernelDensityDecidedPerCall pins the determinism contract of the
// density dispatch: an operand whose top half is dense and bottom half
// sparse (two nonzeros per four-column group, so the sparse and dense
// paths round differently) must give bit-identical products with serial
// kernels and with four workers, whose row shards would each look
// uniformly dense or sparse on their own.
func TestKernelDensityDecidedPerCall(t *testing.T) {
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)

	const rows, k, n = 64, 256, 128
	rng := rand.New(rand.NewSource(41))
	a := New(rows, k)
	for i := 0; i < rows; i++ {
		row := a.Row(i)
		if i < rows/2 {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			continue
		}
		for j := 0; j+4 <= k; j += 16 {
			row[j+1], row[j+2] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	b := New(k, n)
	b.Randn(rng, 1)
	mask := New(k, n)
	suffixMask(rng, mask)
	cache := NewMaskedWeight(b, mask)

	kernels := []struct {
		name string
		run  func() *Tensor
	}{
		{"MatMul", func() *Tensor {
			dst := New(rows, n)
			MatMulInto(dst, a, b)
			return dst
		}},
		{"MaskedMatMulWindow", func() *Tensor {
			g := NewGraph()
			return g.MaskedMatMulWindow(g.Const(a), g.Param(b), cache, k, 0, n).Val
		}},
	}
	for _, kr := range kernels {
		SetMatMulWorkers(1)
		serial := kr.run()
		SetMatMulWorkers(4)
		par := kr.run()
		for i := range serial.Data {
			if serial.Data[i] != par.Data[i] {
				t.Errorf("%s: 1 vs 4 workers differ at %d: %v vs %v", kr.name, i, serial.Data[i], par.Data[i])
				break
			}
		}
	}
}

// TestTransBMatchesReference checks both input-gradient paths bit for bit
// against a plain loop that shares no code with them: per element,
// Σ_j g[i][j]·w[k][j] in j order from +0, skipping zero g, added into
// dst. The windowed path reads W∘M over covered windows (every row's span
// holds the window) and non-covered ones (spans clipped, interior mask
// zeros); gradients are signed with +0 and −0 entries; row counts 1–17
// give 8-lane tiles and leftover lanes, and the window heights give unit
// tails of 1–3. It runs with the vector kernels on and off.
func TestTransBMatchesReference(t *testing.T) {
	defer SetVectorKernels(SetVectorKernels(true))
	const in, out = 23, 31
	masks := map[string]func(rng *rand.Rand, m *Tensor){
		"dense":  func(_ *rand.Rand, m *Tensor) { m.Fill(1) },
		"suffix": suffixMask,
		"random": func(rng *rand.Rand, m *Tensor) {
			for i := range m.Data {
				m.Data[i] = float64(rng.Intn(2))
			}
		},
	}
	windows := []window{
		{in, 0, out}, {1, 0, out}, {2, 3, 29}, {3, 7, 8}, {5, 4, 20},
		{6, 30, out}, {7, 0, 1}, {17, 11, 27}, {18, 2, 19}, {19, 0, out}, {21, 12, 12},
	}
	signed := func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(5) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	check := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s (vector %v): element %d is %v, want %v", what, vectorKernels, i, got[i], want[i])
			}
		}
	}
	seen := map[bool]bool{}
	rng := rand.New(rand.NewSource(8))
	for _, vec := range []bool{true, false} {
		SetVectorKernels(vec)
		for name, fill := range masks {
			w, mask := New(in, out), New(in, out)
			w.Randn(rng, 0.7)
			fill(rng, mask)
			mw := NewMaskedWeight(w, mask)
			prod := mw.Get()
			for _, win := range windows {
				seen[windowCovered(mw.Spans(), win)] = true
				width := win.colEnd - win.colOff
				for rows := 1; rows <= 17; rows++ {
					g := FromSlice(rows, width, signed(rng, rows*width))
					dst0 := FromSlice(rows, in+2, signed(rng, rows*(in+2)))
					want := dst0.Clone()
					for i := 0; i < rows; i++ {
						for k := 0; k < win.rowEnd; k++ {
							var s float64
							for j := 0; j < width; j++ {
								if gv := g.Data[i*width+j]; gv != 0 {
									s += float64(gv * prod.Data[k*out+win.colOff+j])
								}
							}
							want.Data[i*want.Cols+k] += s
						}
					}
					got := dst0.Clone()
					NewGraph().matMulTransBAdd(got, g, prod, win.rowEnd, win.colOff)
					check(fmt.Sprintf("%s window %+v rows %d", name, win, rows), got.Data, want.Data)

					// The plain a·bᵀ over that window copied out as b.
					b := New(win.rowEnd, width)
					for k := range b.Rows {
						copy(b.Row(k), prod.Data[k*out+win.colOff:][:width])
					}
					got = New(rows, win.rowEnd)
					plain := New(rows, win.rowEnd)
					for i := range rows {
						copy(got.Row(i), dst0.Row(i)[:win.rowEnd])
						copy(plain.Row(i), want.Row(i)[:win.rowEnd])
					}
					NewGraph().MatMulTransBAddInto(got, g, b)
					check(fmt.Sprintf("%s plain %+v rows %d", name, win, rows), got.Data, plain.Data)
				}
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("windows covered/non-covered seen: %v, want both", seen)
	}
}
