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
// the product it stands for, x[:, :rowEnd]·(W⊙M)[:rowEnd, colOff:colEnd],
// and its gradients under the loss mean(out²), written as plain loops —
// forward and backward, across mask styles, windows that clip spans on
// both sides, an input wider than the window, and empty windows.
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

			// The reference: out, then G = d mean(out²)/d out, then
			// dX = G·(W⊙M)ᵀ and dW = (xᵀ·G)⊙M on the window, zero elsewhere.
			outRef, dX, dW := New(batch, width), New(batch, wd.xCols), New(in, out)
			for r := 0; r < batch; r++ {
				for c := 0; c < width; c++ {
					var s float64
					for k := 0; k < wd.rowEnd; k++ {
						s += x.At(r, k) * w.At(k, wd.colOff+c) * mask.At(k, wd.colOff+c)
					}
					outRef.Set(r, c, s)
				}
			}
			for r := 0; r < batch; r++ {
				for c := 0; c < width; c++ {
					g := 2 * outRef.At(r, c) / float64(batch*width)
					for k := 0; k < wd.rowEnd; k++ {
						m := mask.At(k, wd.colOff+c)
						dX.Data[r*wd.xCols+k] += g * w.At(k, wd.colOff+c) * m
						dW.Data[k*out+wd.colOff+c] += x.At(r, k) * g * m
					}
				}
			}

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
			check("forward", outRef.Data, outWin.Val.Data)
			check("dX", dX.Data, xw.Grad.Data)
			check("dW", dW.Data, ww.Grad.Data)
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
// product kernel: an operand whose top half is dense and bottom half
// sparse (two nonzeros per sixteen columns, which the Go twin lists and
// the AVX2 tiles multiply through) must give bit-identical products with
// serial kernels and with four workers, whose row shards would each look
// uniformly dense or sparse on their own, and with the vector kernels on
// and off.
func TestKernelDensityDecidedPerCall(t *testing.T) {
	defer SetMatMulWorkers(MatMulWorkers())
	defer SetVectorKernels(SetVectorKernels(true))

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
		SetVectorKernels(true)
		SetMatMulWorkers(1)
		serial := kr.run()
		SetMatMulWorkers(4)
		par := kr.run()
		SetVectorKernels(false)
		scalar := kr.run()
		for i := range serial.Data {
			if serial.Data[i] != par.Data[i] {
				t.Errorf("%s: 1 vs 4 workers differ at %d: %v vs %v", kr.name, i, serial.Data[i], par.Data[i])
				break
			}
			if math.Float64bits(serial.Data[i]) != math.Float64bits(scalar.Data[i]) {
				t.Errorf("%s: vector kernels on vs off differ at %d: %v vs %v", kr.name, i, serial.Data[i], scalar.Data[i])
				break
			}
		}
	}
}

// The reference tests' masks, windows and operands. The windows give
// heights of 1–23 (lanes for the weight gradient, units for the input
// gradient) and widths with unit tails of 1–3, and the suffix and random
// masks give windows that their rows' spans do not cover.
var (
	testMasks = []struct {
		name string
		fill func(rng *rand.Rand, m *Tensor)
	}{
		{"dense", func(_ *rand.Rand, m *Tensor) { fill(m, 1) }},
		{"suffix", suffixMask},
		{"random", func(rng *rand.Rand, m *Tensor) {
			for i := range m.Data {
				m.Data[i] = float64(rng.Intn(2))
			}
		}},
	}
	testWindows = []window{
		{23, 0, 31}, {1, 0, 31}, {2, 3, 29}, {3, 7, 8}, {5, 4, 20},
		{6, 30, 31}, {7, 0, 1}, {17, 11, 27}, {18, 2, 19}, {19, 0, 31}, {21, 12, 12},
	}
)

// signedValues returns n values of which about a fifth are +0, a fifth −0
// and the rest standard normal.
func signedValues(rng *rand.Rand, n int) []float64 {
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

// spansCover reports whether the span of every weight row of win contains
// the window's columns, making it a dense block of the masked product.
func spansCover(spans []int, win window) bool {
	for k := 0; k < win.rowEnd; k++ {
		if spans[2*k] > win.colOff || spans[2*k+1] < win.colEnd {
			return false
		}
	}
	return true
}

// checkBits fails t at the first element of got whose bits differ from
// want's.
func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
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
	check := func(what string, got, want []float64) {
		t.Helper()
		checkBits(t, fmt.Sprintf("%s (vector %v)", what, vectorKernels), got, want)
	}
	seen := map[bool]bool{}
	rng := rand.New(rand.NewSource(8))
	for _, vec := range []bool{true, false} {
		SetVectorKernels(vec)
		for _, m := range testMasks {
			name := m.name
			w, mask := New(in, out), New(in, out)
			w.Randn(rng, 0.7)
			m.fill(rng, mask)
			mw := NewMaskedWeight(w, mask)
			prod := mw.Get()
			for _, win := range testWindows {
				seen[spansCover(mw.Spans(), win)] = true
				width := win.colEnd - win.colOff
				for rows := 1; rows <= 17; rows++ {
					g := FromSlice(rows, width, signedValues(rng, rows*width))
					dst0 := FromSlice(rows, in+2, signedValues(rng, rows*(in+2)))
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

// TestProductsMatchReference holds the other products bit for bit to
// plain loops that share no code with them: MatMulInto, the forward
// window of MaskedMatMulWindow and MaskedLinearReLUInto, and the weight
// gradients of Graph.matMulTransAAdd and of a masked window. Each
// reference element is a sum over k in order from +0, every product rounded before
// its add; the masked ones take only the terms whose mask entry is
// nonzero, as a product over the spans alone would. The inputs are signed
// with ±0 entries, one-hot, or half zero and half positive; batches of
// 1–17 rows give the forward products 8-lane tiles and leftover lanes, and
// testWindows' heights and widths do the same for the weight gradients.
// Every case runs with the vector kernels on and off and with 1 and 4
// workers, and one larger size is big enough for runKernel to split it.
func TestProductsMatchReference(t *testing.T) {
	defer SetVectorKernels(SetVectorKernels(true))
	defer SetMatMulWorkers(MatMulWorkers())
	inputs := []struct {
		name string
		make func(rng *rand.Rand, rows, cols int) *Tensor
	}{
		{"signed", func(rng *rand.Rand, rows, cols int) *Tensor {
			return FromSlice(rows, cols, signedValues(rng, rows*cols))
		}},
		{"one-hot", func(rng *rand.Rand, rows, cols int) *Tensor {
			x := New(rows, cols)
			for i := range rows {
				x.Set(i, rng.Intn(cols), 1)
			}
			return x
		}},
		{"half-zero", func(rng *rand.Rand, rows, cols int) *Tensor {
			x := New(rows, cols)
			for i := range x.Data {
				if rng.Intn(2) == 0 {
					x.Data[i] = math.Abs(rng.NormFloat64())
				}
			}
			return x
		}},
	}
	sizes := []struct {
		in, out int
		windows []window
		batches []int
	}{
		{23, 31, testWindows, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}},
		{300, 250, []window{{300, 0, 250}, {211, 17, 250}}, []int{40}},
	}
	// each runs f with the vector kernels on and off and 1 and 4 workers.
	each := func(what string, want []float64, f func() []float64) {
		t.Helper()
		for _, vec := range []bool{true, false} {
			SetVectorKernels(vec)
			for _, workers := range []int{1, 4} {
				SetMatMulWorkers(workers)
				checkBits(t, fmt.Sprintf("%s (vector %v, %d workers)", what, vectorKernels, workers), f(), want)
			}
		}
	}
	seen := map[bool]bool{}
	rng := rand.New(rand.NewSource(9))
	for _, size := range sizes {
		in, out := size.in, size.out
		for _, m := range testMasks {
			if in > 23 && m.name == "random" {
				continue // the large size checks the row split, not the masks
			}
			w, mask := New(in, out), New(in, out)
			w.Randn(rng, 0.7)
			m.fill(rng, mask)
			cache := NewMaskedWeight(w, mask)
			mw := cache.Get()
			bias := FromSlice(1, out, signedValues(rng, out))
			for _, win := range size.windows {
				seen[spansCover(cache.Spans(), win)] = true
				width := win.colEnd - win.colOff
				for _, rows := range size.batches {
					for _, input := range inputs {
						x := input.make(rng, rows, in)
						name := fmt.Sprintf("%s mask, window %+v, %d %s rows", m.name, win, rows, input.name)

						// Forward: x[:, :rowEnd]·(W∘M)[window], and the same
						// window copied out as a plain b.
						fwd := New(rows, width)
						b := New(win.rowEnd, width)
						for i := range rows {
							for j := range width {
								var s float64
								for k := range win.rowEnd {
									if mask.At(k, win.colOff+j) != 0 {
										s += float64(x.At(i, k) * mw.At(k, win.colOff+j))
									}
								}
								fwd.Set(i, j, s)
							}
						}
						for k := range win.rowEnd {
							copy(b.Row(k), mw.Row(k)[win.colOff:win.colEnd])
						}
						xk := New(rows, win.rowEnd)
						for i := range rows {
							copy(xk.Row(i), x.Row(i)[:win.rowEnd])
						}
						each(name+": MatMulInto", fwd.Data, func() []float64 {
							dst := New(rows, width)
							fill(dst, math.NaN())
							MatMulInto(dst, xk, b)
							return dst.Data
						})
						each(name+": MaskedMatMulWindow", fwd.Data, func() []float64 {
							g := NewGraph()
							return g.MaskedMatMulWindow(g.Const(x), g.Param(w), cache, win.rowEnd, win.colOff, win.colEnd).Val.Data
						})
						band := New(rows, out)
						for i := range rows {
							for j := range width {
								if v := fwd.At(i, j) + bias.Data[win.colOff+j]; v > 0 {
									band.Set(i, win.colOff+j, v)
								}
							}
						}
						each(name+": MaskedLinearReLUInto", band.Data, func() []float64 {
							g := NewGraph()
							dst := g.Buffer(rows, out)
							g.MaskedLinearReLUInto(dst, g.Const(x), g.Param(w), g.Param(bias), cache, win.rowEnd, win.colOff, win.colEnd)
							return dst.Val.Data
						})

						// Weight gradients of G, a signed rows×width gradient:
						// x[:, :rowEnd]ᵀ·G added into a nonzero dst0, plain
						// and masked to the window's spans.
						grad := FromSlice(rows, width, signedValues(rng, rows*width))
						dst0 := New(win.rowEnd, width)
						dst0.Randn(rng, 1)
						plain, masked := dst0.Clone(), New(in, out)
						masked.Randn(rng, 1)
						maskedWant := masked.Clone()
						for r := range win.rowEnd {
							for j := range width {
								var s float64
								for i := range rows {
									s += float64(x.At(i, r) * grad.At(i, j))
								}
								plain.Data[r*width+j] += s
								if mv := mask.At(r, win.colOff+j); mv != 0 {
									maskedWant.Data[r*out+win.colOff+j] += float64(s * mv)
								}
							}
						}
						each(name+": matMulTransAAdd", plain.Data, func() []float64 {
							dst := dst0.Clone()
							NewGraph().matMulTransAAdd(dst, xk, grad)
							return dst.Data
						})
						each(name+": masked dW", maskedWant.Data, func() []float64 {
							g := NewGraph()
							wn := g.Param(w)
							copy(wn.Grad.Data, masked.Data)
							g.maskedWindowBackward(g.Const(x), wn, grad, mask, mw, cache.Spans(), win)
							return wn.Grad.Data
						})
					}
				}
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("windows covered/non-covered seen: %v, want both", seen)
	}
}
