package tensor

import "fmt"

// Ops for computations that grow one column (or one sequence position) per
// step on a single tape, as a progressive-sampling chain does: step i adds
// what column i needs and reads everything earlier steps produced in
// place. Buffer-writing ops fill a column block of a Buffer node; their
// tape nodes alias the buffer, and each block's gradient is complete when
// the reverse pass reaches its writer, because every reader of a block is
// created after the block is written.

// CopyColsInto writes src into columns [off, off+src.Cols) of the buffer
// dst. src's gradient is the same block of dst's gradient.
func (g *Graph) CopyColsInto(dst, src *Node, off int) {
	rows, width := src.Val.Rows, src.Val.Cols
	if dst.Val.Rows != rows || off < 0 || off+width > dst.Val.Cols {
		panic(fmt.Sprintf("tensor: CopyColsInto %v into %v at column %d out of range", src.Val, dst.Val, off))
	}
	for i := 0; i < rows; i++ {
		copy(dst.Val.Row(i)[off:off+width], src.Val.Row(i))
	}
	n := g.pushInto(dst, opCopyCols, src.requiresGrad)
	n.a = src
	n.i1 = off
}

// MaskedLinearReLUInto computes one band of a masked ReLU layer into the
// buffer dst:
//
//	dst[:, colOff:colEnd] = relu(x[:, :rowEnd]·(W∘Mask)[:rowEnd, colOff:colEnd] + b[colOff:colEnd])
//
// with W∘Mask read from the cache and x read in place, so x may itself be
// a buffer whose columns at or past rowEnd are not written yet, though not
// dst. dst has the layer's full output width and b is the layer's 1×width
// bias. The backward pass writes only the window's sub-blocks of x.Grad,
// W.Grad and b.Grad, like MaskedMatMulWindow.
func (g *Graph) MaskedLinearReLUInto(dst, x, w, b *Node, cache *MaskedWeight, rowEnd, colOff, colEnd int) {
	if w.Val != cache.Weight() {
		panic("tensor: MaskedLinearReLUInto weight node does not bind the cache's weight tensor")
	}
	mw := cache.Get()
	rows := x.Val.Rows
	if rowEnd < 0 || rowEnd > x.Val.Cols || rowEnd > mw.Rows || colOff < 0 || colOff > colEnd || colEnd > mw.Cols ||
		dst.Val.Rows != rows || dst.Val.Cols != mw.Cols || b.Val.Rows != 1 || b.Val.Cols != mw.Cols || dst.Val == x.Val {
		panic(fmt.Sprintf("tensor: masked band [:%d, %d:%d] of %v·%v+%v into %v out of range",
			rowEnd, colOff, colEnd, x.Val, mw, b.Val, dst.Val))
	}
	// The band's pre-activations go straight into dst, then bias and ReLU
	// in place.
	runKernel(kernelCall{dst: dst.Val, a: x.Val, b: mw, k: rowEnd, lo: colOff, head: colEnd})
	bias := b.Val.Data[colOff:colEnd]
	for i := 0; i < rows; i++ {
		drow := dst.Val.Row(i)[colOff:colEnd]
		for j, v := range drow {
			if v += bias[j]; v > 0 {
				drow[j] = v
			} else {
				drow[j] = 0
			}
		}
	}
	n := g.pushInto(dst, opMaskedBand, x.requiresGrad || w.requiresGrad || b.requiresGrad)
	n.a, n.b, n.c = x, w, b
	n.aux1 = cache.Mask()
	n.aux2 = mw
	n.mwc = cache
	n.i1, n.i2, n.i3 = rowEnd, colOff, colEnd
}
