package tensor

import "fmt"

// The product kernel, and the operations that run on it. MatMulPrefixInto
// computes a block of a·w[:, off:] where each unit (output column) sums its
// own prefix of the inputs, each element one sequential sum over k from +0
// with every product rounded before its add, on the AVX2 lane tiles or
// their Go twin. Batched sampling calls it with MADE's per-unit prefixes;
// every other product gives all units of a call one shared prefix
// (matMulSharedRows through runKernel): the plain a·b, the masked windows
// x[:, :rowEnd]·(W∘Mask)[:rowEnd, colOff:colEnd] of the training chain,
// read in place from the MaskedWeight cache with prefix rowEnd, and the
// gradients aᵀ·b and a·bᵀ, which transpose an operand into tape scratch
// first. A window needs no span clipping: W∘Mask is ±0 outside each row's
// span, and a sum that starts at +0 is never −0, so those terms leave
// every element as the span alone would give it, covered window or not.
//
// One one-hot product stays apart, since the tiles would multiply every
// zero: MatMulNZSuffixHeadRangeInto serves the input layer of batched
// sampling from each lane's list of set inputs, so its cost follows the
// few set one-hots rather than the input width.

// Batched ancestral sampling runs over MADE's sorted-degree masks, whose
// spans are suffixes [start, n) with nondecreasing starts (empty rows,
// [n, n), come last). An input then reaches a suffix of the next layer,
// and a unit reads a prefix of the layer below, so a column step
// restricted to the unit prefix its logits depend on touches only a
// leading block of each weight.

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
// the lane count, and the AVX2 tiles store exactly what the Go loop does
// while w is finite. A zero activation against an Inf or NaN weight is
// the one case that splits them: the tiles multiply it and store NaN, the
// Go loop skips it. Only a diverged model holds such a weight.
// a ≥ +0 matters only across different prefixes within a tile: when every
// unit of a call shares one prefix there are no extra terms, and signed
// activations are exact too, which is how every other product of the
// package runs on these tiles (matMulSharedRows).
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
	matMulPrefixRows(dst, a, w, off, prefix[lo:head], lo, 0, a.Rows)
}

// matMulPrefixRows runs MatMulPrefixInto's kernel, unchecked, over rows
// [r0, r1) of dst and a and units [lo, lo+len(pre)), pre being their
// prefixes; pre is not empty.
func matMulPrefixRows(dst, a, w *Tensor, off int, pre []int, lo, r0, r1 int) {
	if vectorKernels {
		matMulPrefixVec(dst, a, w, off, pre, lo, r0, r1)
		return
	}
	matMulPrefixGo(dst, a, w, off, pre, lo, r0, r1)
}

// sharedChunk is how many units matMulSharedRows hands the kernel per
// call. Their prefix array lives on its stack, and the tiles do not let it
// escape, so a warm product allocates nothing.
const sharedChunk = 64

// matMulSharedRows computes rows [r0, r1) of columns [lo, head) of
// dst = a[:, :k]·w[:k, off+lo:off+head] on MatMulPrefixInto's kernel,
// every unit with prefix k. One shared prefix means no unit sums a term
// beyond its own prefix, so signed activations are exact too.
func matMulSharedRows(dst, a, w *Tensor, off, k, lo, head, r0, r1 int) {
	if k == 0 {
		for r := r0; r < r1; r++ {
			clear(dst.Data[r*dst.Cols+lo : r*dst.Cols+head])
		}
		return
	}
	var pre [sharedChunk]int
	for j := range pre {
		pre[j] = k
	}
	for ; lo < head; lo += sharedChunk {
		matMulPrefixRows(dst, a, w, off, pre[:min(sharedChunk, head-lo)], lo, r0, r1)
	}
}

// matMulPrefixVec runs the AVX2 tiles, 8 lanes × 4 units while eight lanes
// remain and 1 lane × 16 units per leftover lane.
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
// order from +0 (axpySeq4). A unit the group's later rows do not reach
// multiplies a masked-off ±0 there.
func matMulPrefixGo(dst, a, w *Tensor, off int, pre []int, lo, r0, r1 int) {
	n, units, kEnd := w.Cols, len(pre), pre[len(pre)-1]
	wd := w.Data[off+lo:]
	var list [64]int
	for r := r0; r < r1; r++ {
		arow := a.Data[r*a.Cols : r*a.Cols+kEnd]
		drow := dst.Data[r*dst.Cols+lo : r*dst.Cols+lo+units]
		clear(drow)
		s := 0 // first unit whose prefix covers the group's first row
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
				for pre[s] <= ks[0] {
					s++
				}
				b := wd[s:]
				axpySeq4(drow[s:], b[ks[0]*n:], b[ks[1]*n:], b[ks[2]*n:], b[ks[3]*n:],
					arow[ks[0]], arow[ks[1]], arow[ks[2]], arow[ks[3]])
			}
			for _, k := range ks {
				for pre[s] <= k {
					s++
				}
				axpy1Go(drow[s:], wd[k*n+s:k*n+units], arow[k])
			}
		}
	}
}

// axpySeq4 computes dst = (((dst + v0·b0) + v1·b1) + v2·b2) + v3·b3 over
// len(dst) elements, each product rounded first: a k-sequential sum.
func axpySeq4(dst, b0, b1, b2, b3 []float64, v0, v1, v2, v3 float64) {
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

// MatMulTransBAddInto computes dst += a·bᵀ, the input gradient of a·b:
// b goes transposed into the tape's scratch, and the product, every unit
// with prefix a.Cols, is added into dst. Each element thus adds
// Σ_j a[i][j]·b[k][j], summed in j order from +0.
func (g *Graph) MatMulTransBAddInto(dst, a, b *Tensor) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB shape mismatch %v,%v→%v", a, b, dst))
	}
	g.matMulTransBAdd(dst, a, b, b.Rows, 0)
}

// matMulTransBAdd computes dst[:, :rowEnd] += a·b[:rowEnd, off:off+a.Cols]ᵀ,
// MatMulTransBAddInto over a window of b. With b = W∘Mask it is the input
// gradient of a masked window (maskedWindowBackward).
func (g *Graph) matMulTransBAdd(dst, a, b *Tensor, rowEnd, off int) {
	g.addProduct(dst, a, g.transpose(b, rowEnd, off, a.Cols))
}

// matMulTransAAdd computes dst += aᵀ·b, the weight gradient of a·b: a
// goes transposed into the tape's scratch, and the product, every unit
// with prefix a.Rows, is added into dst. Each element thus adds
// Σ_r a[r][i]·b[r][j], summed in r order from +0.
func (g *Graph) matMulTransAAdd(dst, a, b *Tensor) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA shape mismatch %v,%v→%v", a, b, dst))
	}
	g.addProduct(dst, g.transpose(a, a.Rows, 0, a.Cols), b)
}

// transpose returns src[:rows, off:off+cols]ᵀ in the tape's transpose
// scratch, valid until the next call.
func (g *Graph) transpose(src *Tensor, rows, off, cols int) *Tensor {
	g.trans = reshape(g.trans, cols, rows)
	t := g.trans
	for j := 0; j < cols; j++ {
		row := t.Data[j*rows : (j+1)*rows]
		for k := range row {
			row[k] = src.Data[k*src.Cols+off+j]
		}
	}
	return t
}

// addProduct computes dst[:, :b.Cols] += a·b, every unit with prefix
// a.Cols, through the tape's product scratch.
func (g *Graph) addProduct(dst, a, b *Tensor) {
	if a.Rows == 0 || b.Cols == 0 {
		return
	}
	g.prod = reshape(g.prod, a.Rows, b.Cols)
	runKernel(kernelCall{dst: dst, a: a, b: b, prod: g.prod, k: a.Cols, head: b.Cols})
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

// window is the sub-block rows [0, rowEnd) × columns [colOff, colEnd) of a
// masked weight product.
type window struct{ rowEnd, colOff, colEnd int }

// clipSpan returns row k's nonzero span clipped to [off, end); the
// result is empty when s >= e.
func clipSpan(spans []int, k, off, end int) (s, e int) {
	return max(spans[2*k], off), min(spans[2*k+1], end)
}
