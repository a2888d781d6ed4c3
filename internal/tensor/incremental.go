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
// a buffer whose columns at or past rowEnd are not written yet. dst has
// the layer's full output width and b is the layer's 1×width bias. The
// backward pass writes only the window's sub-blocks of x.Grad, W.Grad and
// b.Grad, like MaskedMatMulWindow.
func (g *Graph) MaskedLinearReLUInto(dst, x, w, b *Node, cache *MaskedWeight, rowEnd, colOff, colEnd int) {
	if w.Val != cache.Weight() {
		panic("tensor: MaskedLinearReLUInto weight node does not bind the cache's weight tensor")
	}
	mw := cache.Get()
	rows := x.Val.Rows
	if rowEnd < 0 || rowEnd > x.Val.Cols || rowEnd > mw.Rows || colOff < 0 || colOff > colEnd || colEnd > mw.Cols ||
		dst.Val.Rows != rows || dst.Val.Cols != mw.Cols || b.Val.Rows != 1 || b.Val.Cols != mw.Cols {
		panic(fmt.Sprintf("tensor: masked band [:%d, %d:%d] of %v·%v+%v into %v out of range",
			rowEnd, colOff, colEnd, x.Val, mw, b.Val, dst.Val))
	}
	width := colEnd - colOff
	pre := g.alloc(rows, width, false)
	win := window{rowEnd, colOff, colEnd}
	runKernel(rows, rows*rowEnd*width, matMulWindowRange, kernelCall{
		dst: pre, a: x.Val, b: mw, spans: cache.spans, win: win,
		covered: windowCovered(cache.spans, win), sparse: looksSparse(x.Val.Data),
	})
	bias := b.Val.Data[colOff:colEnd]
	for i := 0; i < rows; i++ {
		drow := dst.Val.Row(i)[colOff:colEnd]
		for j, v := range pre.Row(i) {
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

// AttendStep is causal multi-head attention for the newest position of
// sequences that grow by one token per step, one sequence per row. q holds
// the new token's queries (rows×d); ks and vs hold the keys and values of
// positions 0..t, the new token's own last, each rows×d and each a node of
// the tape, so gradients reach every earlier position's projections. Head
// h owns the column block [h·d/heads, (h+1)·d/heads); for row r the result
// in that block is Σ_j softmax_j(scale·q_h·k_{j,h}) · v_{j,h}. The
// positions after t, which a full causal pass masks out, are never
// touched.
func (g *Graph) AttendStep(q *Node, ks, vs []*Node, heads int, scale float64) *Node {
	rows, d, steps := q.Val.Rows, q.Val.Cols, len(ks)
	if steps == 0 || len(vs) != steps || heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: AttendStep over %d keys, %d values, %d heads of width %d", steps, len(vs), heads, d))
	}
	req := q.requiresGrad
	for j := range ks {
		if !ks[j].Val.SameShape(q.Val) || !vs[j].Val.SameShape(q.Val) {
			panic(fmt.Sprintf("tensor: AttendStep position %d: key %v, value %v, query %v", j, ks[j].Val, vs[j].Val, q.Val))
		}
		req = req || ks[j].requiresGrad || vs[j].requiresGrad
	}
	dk := d / heads
	out := g.alloc(rows, d, true)
	probs := g.alloc(rows, heads*steps, false)
	for r := 0; r < rows; r++ {
		qrow, orow, prow := q.Val.Row(r), out.Row(r), probs.Row(r)
		for h := 0; h < heads; h++ {
			lo, hi := h*dk, (h+1)*dk
			p := prow[h*steps : (h+1)*steps]
			for j, k := range ks {
				p[j] = dot1Dense(qrow[lo:hi], k.Val.Row(r)[lo:hi]) * scale
			}
			SoftmaxRowInto(p, p)
			for j, v := range vs {
				axpy1(orow[lo:hi], v.Val.Row(r)[lo:hi], p[j])
			}
		}
	}
	n := g.push(out, opAttendStep, req)
	n.a = q
	off := len(g.partsArena)
	g.partsArena = append(g.partsArena, ks...)
	g.partsArena = append(g.partsArena, vs...)
	n.parts = g.partsArena[off : off+2*steps : off+2*steps]
	n.aux1 = probs
	n.f1 = scale
	n.i1 = heads
	return n
}

// attendStepBackward is AttendStep's backward pass: per row and head,
// dv_j = p_j·G, and through the softmax ds_j = p_j·(G·v_j − Σ_k p_k G·v_k),
// then dq = scale·Σ_j ds_j k_j and dk_j = scale·ds_j q.
func (g *Graph) attendStepBackward(n *Node) {
	q, probs, scale, heads := n.a, n.aux1, n.f1, n.i1
	steps := len(n.parts) / 2
	ks, vs := n.parts[:steps], n.parts[steps:]
	rows, d := q.Val.Rows, q.Val.Cols
	dk := d / heads
	dp := g.alloc(1, steps, false).Data
	for r := 0; r < rows; r++ {
		qrow, grow, prow := q.Val.Row(r), n.Grad.Row(r), probs.Row(r)
		for h := 0; h < heads; h++ {
			lo, hi := h*dk, (h+1)*dk
			gh := grow[lo:hi]
			p := prow[h*steps : (h+1)*steps]
			var mean float64
			for j, v := range vs {
				dp[j] = dot1Dense(gh, v.Val.Row(r)[lo:hi])
				mean += p[j] * dp[j]
				if v.requiresGrad {
					axpy1(v.Grad.Row(r)[lo:hi], gh, p[j])
				}
			}
			for j, k := range ks {
				ds := p[j] * (dp[j] - mean) * scale
				if q.requiresGrad {
					axpy1(q.Grad.Row(r)[lo:hi], k.Val.Row(r)[lo:hi], ds)
				}
				if k.requiresGrad {
					axpy1(k.Grad.Row(r)[lo:hi], qrow[lo:hi], ds)
				}
			}
		}
	}
}
