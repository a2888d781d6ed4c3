package tensor

import "fmt"

// Span-aware matmul kernels for masked weight matrices. The mask's per-row
// nonzero column spans (precomputed by MaskedWeight) bound where the cached
// product W∘Mask can be nonzero, so each kernel touches only those columns.
// For MADE's sorted-degree masks the spans are contiguous suffixes covering
// about half of each row, which halves the multiply-add work of every
// masked layer. The kernels remain correct for arbitrary masks: columns
// inside a span that happen to be masked just multiply by zero.
//
// The register-blocked paths process four weight rows at a time; rows in a
// block may have different spans, so the block handles the intersection
// with axpy4 and the per-row leftovers with axpy1. Sorted-degree masks
// give near-identical spans for adjacent rows, keeping the leftovers tiny.
//
// The autodiff kernels (matMulWindow*) work on a window of the masked
// product: weight rows [0, rowEnd) and columns [colOff, colEnd), with
// every span clipped to the window; the window's input gradient runs on
// the prefix tiles instead (Graph.matMulTransBAdd). The full product is
// the window covering everything. A progressive-sampling step for column
// i needs only the window its logit block depends on (see
// Graph.MaskedMatMulWindow).

// The remaining kernels serve batched ancestral sampling over MADE's
// sorted-degree masks, whose spans are suffixes [start, n) with
// nondecreasing starts (empty rows, [n, n), come last). An input then
// reaches a suffix of the next layer, and a unit reads a prefix of the
// layer below, so a column step restricted to the unit prefix its logits
// depend on touches only a leading block of each weight.

// MatMulNZSuffixHeadRangeInto computes columns [lo, head) of dst = a·mw for
// such suffix spans, visiting only the entries of each a row whose
// (ascending) indices are listed in nz[i] instead of scanning the row for
// nonzeros. Batched ancestral sampling uses it for the one-hot input layer:
// the sampler's buffer already knows which inputs it set, so the per-lane
// cost is proportional to the sampled prefix length rather than the input
// width. Listed entries may be zero (they just add nothing); unlisted
// entries must be zero.
func MatMulNZSuffixHeadRangeInto(dst, a *Tensor, nz [][]int, mw *Tensor, spans []int, lo, head int) {
	checkMatMul(dst, a, mw)
	if lo < 0 || lo > head || head > mw.Cols {
		panic(fmt.Sprintf("tensor: suffix range [%d,%d) out of range [0,%d]", lo, head, mw.Cols))
	}
	cols, n := a.Cols, mw.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*cols : (i+1)*cols]
		drow := dst.Data[i*n : i*n+head]
		for j := lo; j < head; j++ {
			drow[j] = 0
		}
		for _, k := range nz[i] {
			s := spans[2*k]
			if s >= head {
				break // monotone: every later entry starts later still
			}
			if s < lo {
				s = lo
			}
			axpy1(drow[s:], mw.Data[k*n+s:k*n+head], arow[k])
		}
	}
}

// MatMulPrefixInto computes columns [lo, head) of dst as a·w[:, off:], each
// unit over its own input prefix, dst[r][j] = Σ_{k<prefix[j]} a[r][k]·w[k][off+j],
// summed in k order from +0 with every product rounded before its add.
// prefix is indexed like dst's columns, nondecreasing over [lo, head), and
// prefix[head−1] is within a's columns and w's rows; other dst columns are
// untouched. Batched sampling runs MADE's deeper hidden layers and output
// blocks through it, whose suffix spans make each unit read a prefix.
//
// A tile of units sums every unit up to the longest prefix among them.
// With a ≥ +0 (ReLU activations) and w[k][off+j] = ±0 for k ≥ prefix[j]
// (masked-off entries of W∘Mask) each extra term is ±0, and a sum that
// starts at +0 is never −0, so adding ±0 leaves it unchanged; for the same
// reason the Go loop may skip zero activations. Every element thus
// depends only on its own row, column and prefix, not on its tile, lo or
// the lane count, and the AVX2 tiles store exactly what the Go loop does.
// a ≥ +0 matters only across different prefixes within a tile: when every
// unit of a call shares one prefix there are no extra terms, and signed
// activations are exact too, which is how Graph.MatMulTransBAddInto runs
// the input gradient on these tiles.
func MatMulPrefixInto(dst, a, w *Tensor, off int, prefix []int, lo, head int) {
	if dst.Rows != a.Rows || lo < 0 || lo > head || head > dst.Cols || head > len(prefix) ||
		off < 0 || off+head > w.Cols {
		panic(fmt.Sprintf("tensor: prefix matmul mismatch %v·%v[:,%d:]→%v range [%d,%d)", a, w, off, dst, lo, head))
	}
	if lo == head {
		return
	}
	if k := prefix[head-1]; k > a.Cols || k > w.Rows || prefix[lo] < 0 {
		panic(fmt.Sprintf("tensor: prefix %d..%d outside %v·%v", prefix[lo], k, a, w))
	}
	matMulPrefixRows(dst, a, w, off, prefix, lo, head, 0, a.Rows)
}

// matMulPrefixRows runs MatMulPrefixInto's kernel, unchecked, over rows
// [r0, r1) of dst and a, with lo < head.
func matMulPrefixRows(dst, a, w *Tensor, off int, prefix []int, lo, head, r0, r1 int) {
	if vectorKernels {
		matMulPrefixVec(dst, a, w, off, prefix[lo:head], lo, r0, r1)
		return
	}
	matMulPrefixGo(dst, a, w, off, prefix, lo, head, r0, r1)
}

// matMulPrefixVec runs the AVX2 tiles, 8 lanes × 4 units while eight lanes
// remain and 1 lane × 16 units per leftover lane; pre is prefix[lo:head].
func matMulPrefixVec(dst, a, w *Tensor, off int, pre []int, lo, r0, r1 int) {
	wd := w.Data[off+lo:]
	r := r0
	for ; r+8 <= r1; r += 8 {
		laneTile8AVX2(dst.Data[r*dst.Cols+lo:], dst.Cols, a.Data[r*a.Cols:], a.Cols, wd, w.Cols, pre)
	}
	for ; r < r1; r++ {
		laneTile1AVX2(dst.Data[r*dst.Cols+lo:], a.Data[r*a.Cols:], wd, w.Cols, pre)
	}
}

// matMulPrefixGo is the Go loop, one lane at a time in the axpy form: it
// lists the lane's nonzero activations, a chunk of up to 64 at a time,
// then adds their weight rows to the units their prefixes reach, four rows
// per pass over the units, each element taking its terms one by one in k
// order from +0 (seqAxpy4). A unit the group's later rows do not reach
// multiplies a masked-off ±0 there.
func matMulPrefixGo(dst, a, w *Tensor, off int, prefix []int, lo, head, r0, r1 int) {
	n, kEnd := w.Cols, prefix[head-1]
	var list [64]int
	for r := r0; r < r1; r++ {
		arow := a.Data[r*a.Cols : r*a.Cols+kEnd]
		drow := dst.Data[r*dst.Cols : r*dst.Cols+head]
		clear(drow[lo:])
		s := lo // first unit whose prefix covers the group's first row
		for k0 := 0; k0 < kEnd; k0 += len(list) {
			nk := 0
			for k, av := range arow[k0:min(k0+len(list), kEnd)] {
				// Keeping k only when av is nonzero, without a branch on the
				// half-zero ReLU pattern, which would mispredict constantly.
				list[nk] = k0 + k
				if av != 0 {
					nk++
				}
			}
			ks := list[:nk]
			for ; len(ks) >= 4; ks = ks[4:] {
				for prefix[s] <= ks[0] {
					s++
				}
				b := w.Data[off+s:]
				seqAxpy4(drow[s:], b[ks[0]*n:], b[ks[1]*n:], b[ks[2]*n:], b[ks[3]*n:],
					arow[ks[0]], arow[ks[1]], arow[ks[2]], arow[ks[3]])
			}
			for _, k := range ks {
				for prefix[s] <= k {
					s++
				}
				axpy1Go(drow[s:], w.Data[k*n+off+s:k*n+off+head], arow[k])
			}
		}
	}
}

// seqAxpy4 computes dst = (((dst + v0·b0) + v1·b1) + v2·b2) + v3·b3 over
// len(dst) elements, each product rounded first: a k-sequential sum.
func seqAxpy4(dst, b0, b1, b2, b3 []float64, v0, v1, v2, v3 float64) {
	b0 = b0[:len(dst)]
	b1 = b1[:len(dst)]
	b2 = b2[:len(dst)]
	b3 = b3[:len(dst)]
	for j, d := range dst {
		d += float64(v0 * b0[j])
		d += float64(v1 * b1[j])
		d += float64(v2 * b2[j])
		d += float64(v3 * b3[j])
		dst[j] = d
	}
}

// MatMulTransBAddInto computes dst += a·bᵀ, the input gradient of a·b, on
// MatMulPrefixInto's tiles: b goes transposed into the tape's scratch and
// every unit gets the prefix a.Cols. Each element thus adds
// Σ_j a[i][j]·b[k][j], summed in j order from +0 with every product
// rounded before its add, and the AVX2 tiles store the same bits as the Go
// loop for signed a.
func (g *Graph) MatMulTransBAddInto(dst, a, b *Tensor) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB shape mismatch %v,%v→%v", a, b, dst))
	}
	g.matMulTransBAdd(dst, a, b, b.Rows, 0)
}

// matMulTransBAdd computes dst[:, :rowEnd] += a·b[:rowEnd, off:off+a.Cols]ᵀ,
// MatMulTransBAddInto over a window of b. With b = W∘Mask it is the input
// gradient of a masked window (maskedWindowBackward): entries outside a
// row's span are ±0, and a sum that starts at +0 is never −0, so adding
// their terms, or skipping zero terms of a, leaves every element as the
// span alone would give it.
func (g *Graph) matMulTransBAdd(dst, a, b *Tensor, rowEnd, off int) {
	width := a.Cols
	if rowEnd == 0 || a.Rows == 0 {
		return
	}
	g.transB = reshape(g.transB, width, rowEnd)
	bt := g.transB
	for j := 0; j < width; j++ {
		row := bt.Data[j*rowEnd : (j+1)*rowEnd]
		for k := range row {
			row[k] = b.Data[k*b.Cols+off+j]
		}
	}
	if cap(g.transBPrefix) < rowEnd {
		g.transBPrefix = make([]int, rowEnd)
	}
	pre := g.transBPrefix[:rowEnd]
	for k := range pre {
		pre[k] = width
	}
	g.transBProd = reshape(g.transBProd, a.Rows, rowEnd)
	runKernel(a.Rows, a.Rows*width*rowEnd, matMulTransBRange,
		kernelCall{dst: dst, a: a, b: bt, prod: g.transBProd, prefix: pre})
}

// reshape returns t as a rows×cols tensor with arbitrary contents, reusing
// its storage when that is large enough.
func reshape(t *Tensor, rows, cols int) *Tensor {
	if t == nil || cap(t.Data) < rows*cols {
		return New(rows, cols)
	}
	t.Rows, t.Cols, t.Data = rows, cols, t.Data[:rows*cols]
	return t
}

// matMulTransBRange computes rows [lo, hi) of dst[:, :n] += a·bt for the
// transposed operand bt (a.Cols × n): the prefix kernel writes the product
// into c.prod, which is then added into dst.
func matMulTransBRange(c kernelCall, lo, hi int) {
	prod, n := c.prod, c.b.Cols
	matMulPrefixRows(prod, c.a, c.b, 0, c.prefix, 0, n, lo, hi)
	for i := lo; i < hi; i++ {
		// dst + 1·p is dst + p, bit for bit: axpy1 is the vector add.
		axpy1(c.dst.Data[i*c.dst.Cols:], prod.Data[i*n:(i+1)*n], 1)
	}
}

// dot1Dense returns the dot product of two equal-length slices, for dense
// operands (attention scores).
func dot1Dense(a, b []float64) (s float64) {
	b = b[:len(a)]
	for k, av := range a {
		s += av * b[k]
	}
	return
}

// clip returns weight row k's nonzero span clipped to the call's window
// columns: the whole window when every row covers it.
func (c *kernelCall) clip(k int) (s, e int) {
	if c.covered {
		return c.win.colOff, c.win.colEnd
	}
	return clipSpan(c.spans, k, c.win.colOff, c.win.colEnd)
}

// windowCovered reports whether the span of every weight row in
// [0, win.rowEnd) contains the window's columns, making the window a dense
// block of the masked product. The windows of a MADE progressive-sampling
// chain always are: a hidden band or an output block reads only units of
// lower degree, which connect to all of it.
func windowCovered(spans []int, win window) bool {
	for k := 0; k < win.rowEnd; k++ {
		if spans[2*k] > win.colOff || spans[2*k+1] < win.colEnd {
			return false
		}
	}
	return true
}

// clipSpan returns row k's nonzero span clipped to [off, end); the
// result is empty when s >= e.
func clipSpan(spans []int, k, off, end int) (s, e int) {
	return max(spans[2*k], off), min(spans[2*k+1], end)
}

// windowIntersect4 returns the intersection of the spans of rows k..k+3
// clipped to [off, end); an empty intersection comes back as [off, off).
func windowIntersect4(spans []int, k, off, end int) (s, e int) {
	s, e = off, end
	for t := 0; t < 4; t++ {
		s = max(s, spans[2*(k+t)])
		e = min(e, spans[2*(k+t)+1])
	}
	if s >= e {
		return off, off
	}
	return s, e
}

// matMulWindowRange computes rows [lo, hi) of
// dst = a[:, :rowEnd]·mw[:rowEnd, colOff:colEnd], touching only each
// weight row's span within the window. dst is overwritten.
func matMulWindowRange(c kernelCall, lo, hi int) {
	dst, a, b, spans := c.dst, c.a, c.b, c.spans
	cols, n := a.Cols, b.Cols
	rowEnd, off, end := c.win.rowEnd, c.win.colOff, c.win.colEnd
	w := end - off
	clear(dst.Data[lo*w : hi*w])
	if rowEnd == 0 || w == 0 {
		return
	}
	if c.sparse {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*cols : i*cols+rowEnd]
			drow := dst.Data[i*w : (i+1)*w]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				if s, e := c.clip(k); s < e {
					axpy1(drow[s-off:e-off], b.Data[k*n+s:k*n+e], av)
				}
			}
		}
		return
	}
	kb := kBlockFor(w)
	for k0 := 0; k0 < rowEnd; k0 += kb {
		k1 := min(k0+kb, rowEnd)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*cols : i*cols+rowEnd]
			drow := dst.Data[i*w : (i+1)*w]
			k := k0
			for ; k+4 <= k1; k += 4 {
				v0, v1, v2, v3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
					continue
				}
				if c.covered {
					axpy4(drow,
						b.Data[k*n+off:k*n+end], b.Data[(k+1)*n+off:(k+1)*n+end],
						b.Data[(k+2)*n+off:(k+2)*n+end], b.Data[(k+3)*n+off:(k+3)*n+end],
						v0, v1, v2, v3)
					continue
				}
				s, e := windowIntersect4(spans, k, off, end)
				if s < e {
					axpy4(drow[s-off:e-off],
						b.Data[k*n+s:k*n+e], b.Data[(k+1)*n+s:(k+1)*n+e],
						b.Data[(k+2)*n+s:(k+2)*n+e], b.Data[(k+3)*n+s:(k+3)*n+e],
						v0, v1, v2, v3)
				}
				windowLeftovers4(drow, b, spans, k, off, end, s, e, [4]float64{v0, v1, v2, v3})
			}
			for ; k < k1; k++ {
				if av := arow[k]; av != 0 {
					if s, e := c.clip(k); s < e {
						axpy1(drow[s-off:e-off], b.Data[k*n+s:k*n+e], av)
					}
				}
			}
		}
	}
}

// windowLeftovers4 applies the parts of rows k..k+3 (clipped to
// [off, end)) that fall outside the intersection [s, e) already handled by
// axpy4. drow is indexed relative to off.
func windowLeftovers4(drow []float64, b *Tensor, spans []int, k, off, end, s, e int, vs [4]float64) {
	n := b.Cols
	for t, v := range vs {
		if v == 0 {
			continue
		}
		ks, ke := clipSpan(spans, k+t, off, end)
		base := (k + t) * n
		if le := min(ke, s); ks < le {
			axpy1(drow[ks-off:le-off], b.Data[base+ks:base+le], v)
		}
		if ls := max(ks, e); ls < ke {
			axpy1(drow[ls-off:ke-off], b.Data[base+ls:base+ke], v)
		}
	}
}

// matMulWindowTransARange computes dst rows [lo, hi) of
// dst = a[:, :rowEnd]ᵀ·b where dst row i only receives its span's columns
// within the window [colOff, colEnd) — the weight-gradient shape of a
// windowed masked layer, with b holding one column per window column and
// dst the rowEnd×(colEnd−colOff) window. dst is overwritten; entries
// outside a row's span are zero.
func matMulWindowTransARange(c kernelCall, lo, hi int) {
	dst, a, b := c.dst, c.a, c.b
	cols, w := a.Cols, b.Cols
	off := c.win.colOff
	clear(dst.Data[lo*w : hi*w])
	if w == 0 {
		return
	}
	r := 0
	for ; r+4 <= a.Rows; r += 4 {
		a0 := a.Data[r*cols : (r+1)*cols]
		a1 := a.Data[(r+1)*cols : (r+2)*cols]
		a2 := a.Data[(r+2)*cols : (r+3)*cols]
		a3 := a.Data[(r+3)*cols : (r+4)*cols]
		b0 := b.Data[r*w : (r+1)*w]
		b1 := b.Data[(r+1)*w : (r+2)*w]
		b2 := b.Data[(r+2)*w : (r+3)*w]
		b3 := b.Data[(r+3)*w : (r+4)*w]
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			if s, e := c.clip(i); s < e {
				s, e = s-off, e-off
				axpy4(dst.Data[i*w+s:i*w+e], b0[s:e], b1[s:e], b2[s:e], b3[s:e], v0, v1, v2, v3)
			}
		}
	}
	for ; r < a.Rows; r++ {
		arow := a.Data[r*cols : (r+1)*cols]
		brow := b.Data[r*w : (r+1)*w]
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				if s, e := c.clip(i); s < e {
					s, e = s-off, e-off
					axpy1(dst.Data[i*w+s:i*w+e], brow[s:e], av)
				}
			}
		}
	}
}
