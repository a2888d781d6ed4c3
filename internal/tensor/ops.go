package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// logEps floors arguments to Log and Reciprocal so gradients stay finite.
const logEps = 1e-12

// MatMul returns a·b with gradient support for both operands.
func (g *Graph) MatMul(a, b *Node) *Node {
	out := g.alloc(a.Val.Rows, b.Val.Cols, false)
	MatMulInto(out, a.Val, b.Val)
	n := g.push(out, opMatMul, a.requiresGrad || b.requiresGrad)
	n.a, n.b = a, b
	return n
}

// Embed returns y·w like MatMul, for a y whose rows hold few nonzeros:
// the one-hot samples a transformer embeds, where y·w gathers rows of w
// and the weight gradient yᵀ·G scatters rows of G. Those two products
// visit only y's nonzero entries, so their cost follows the set entries
// rather than y's width; the input gradient G·wᵀ is dense and runs as
// MatMul's. Every element is the sum MatMul forms less its ±0 terms, so
// Embed stores MatMul's bits while w and G are finite.
func (g *Graph) Embed(y, w *Node) *Node {
	out := g.alloc(y.Val.Rows, w.Val.Cols, false)
	checkMatMul(out, y.Val, w.Val)
	embedInto(out, y.Val, w.Val)
	n := g.push(out, opEmbed, y.requiresGrad || w.requiresGrad)
	n.a, n.b = y, w
	return n
}

// MaskedMatMulWindow returns x[:, :rowEnd]·(W∘Mask)[:rowEnd, colOff:colEnd]
// — one block of x·(W∘Mask), read in place from the dirty-bit cache, so
// the mask multiply is skipped whenever the weights are unchanged since the
// last optimizer step. w must be the node binding the cache's weight
// tensor (typically g.Param(cache.Weight())). A progressive-sampling step
// for column i needs only such a block: the inputs of the columns before
// i, the hidden-unit prefix of degree ≤ i and column i's logits.
// Gradients flow to x through the masked weights and to W through the
// mask, exactly as for MatMul(x, MulElem(w, Const(mask))) on the block;
// the backward pass writes only the matching sub-blocks (columns
// [0, rowEnd) of x.Grad, the window of W.Grad), so gradient work shrinks
// with the window too.
func (g *Graph) MaskedMatMulWindow(x, w *Node, cache *MaskedWeight, rowEnd, colOff, colEnd int) *Node {
	if w.Val != cache.Weight() {
		panic("tensor: MaskedMatMulWindow weight node does not bind the cache's weight tensor")
	}
	mw := cache.Get()
	if rowEnd < 0 || rowEnd > x.Val.Cols || rowEnd > mw.Rows || colOff < 0 || colOff > colEnd || colEnd > mw.Cols {
		panic(fmt.Sprintf("tensor: masked matmul window [:%d, %d:%d] out of range for %v·%v",
			rowEnd, colOff, colEnd, x.Val, mw))
	}
	out := g.alloc(x.Val.Rows, colEnd-colOff, false)
	runKernel(kernelCall{dst: out, a: x.Val, b: mw, off: colOff, k: rowEnd, head: out.Cols})
	n := g.push(out, opMaskedMatMul, x.requiresGrad || w.requiresGrad)
	n.a, n.b = x, w
	n.aux1 = cache.Mask()
	n.aux2 = mw
	n.mwc = cache
	n.i1, n.i2 = rowEnd, colOff
	return n
}

// AddRow broadcasts the 1×m bias b over every row of a.
func (g *Graph) AddRow(a, b *Node) *Node {
	if b.Val.Cols != a.Val.Cols {
		panic(fmt.Sprintf("tensor: AddRow shape mismatch %v + %v", a.Val, b.Val))
	}
	return g.AddRowAt(a, b, 0)
}

// AddRowAt broadcasts columns [off, off+a.Cols) of the 1×m row b over
// every row of a — the bias of a windowed layer, read in place from the
// full bias so its gradient accumulates straight into b.Grad.
func (g *Graph) AddRowAt(a, b *Node, off int) *Node {
	if b.Val.Rows != 1 || off < 0 || off+a.Val.Cols > b.Val.Cols {
		panic(fmt.Sprintf("tensor: AddRowAt shape mismatch %v + %v[%d:]", a.Val, b.Val, off))
	}
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	bias := b.Val.Data[off : off+a.Val.Cols]
	for i := 0; i < a.Val.Rows; i++ {
		arow := a.Val.Row(i)
		orow := out.Row(i)
		for j, v := range arow {
			orow[j] = v + bias[j]
		}
	}
	n := g.push(out, opAddRow, a.requiresGrad || b.requiresGrad)
	n.a, n.b = a, b
	n.i1 = off
	return n
}

// Add returns a+b elementwise.
func (g *Graph) Add(a, b *Node) *Node {
	if !a.Val.SameShape(b.Val) {
		panic("tensor: Add shape mismatch")
	}
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i := range out.Data {
		out.Data[i] = a.Val.Data[i] + b.Val.Data[i]
	}
	n := g.push(out, opAdd, a.requiresGrad || b.requiresGrad)
	n.a, n.b = a, b
	return n
}

// Sub returns a−b elementwise.
func (g *Graph) Sub(a, b *Node) *Node {
	if !a.Val.SameShape(b.Val) {
		panic("tensor: Sub shape mismatch")
	}
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i := range out.Data {
		out.Data[i] = a.Val.Data[i] - b.Val.Data[i]
	}
	n := g.push(out, opSub, a.requiresGrad || b.requiresGrad)
	n.a, n.b = a, b
	return n
}

// MulElem returns a⊙b elementwise.
func (g *Graph) MulElem(a, b *Node) *Node {
	if !a.Val.SameShape(b.Val) {
		panic("tensor: MulElem shape mismatch")
	}
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i := range out.Data {
		out.Data[i] = a.Val.Data[i] * b.Val.Data[i]
	}
	n := g.push(out, opMulElem, a.requiresGrad || b.requiresGrad)
	n.a, n.b = a, b
	return n
}

// ReLU returns max(a, 0) elementwise.
func (g *Graph) ReLU(a *Node) *Node {
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	n := g.push(out, opReLU, a.requiresGrad)
	n.a = a
	return n
}

// Scale returns s·a.
func (g *Graph) Scale(a *Node, s float64) *Node {
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = v * s
	}
	n := g.push(out, opScale, a.requiresGrad)
	n.a = a
	n.f1 = s
	return n
}

// Log returns ln(max(a, ε)) elementwise.
func (g *Graph) Log(a *Node) *Node {
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = math.Log(math.Max(v, logEps))
	}
	n := g.push(out, opLog, a.requiresGrad)
	n.a = a
	return n
}

// Square returns a² elementwise.
func (g *Graph) Square(a *Node) *Node {
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = v * v
	}
	n := g.push(out, opSquare, a.requiresGrad)
	n.a = a
	return n
}

// Mean returns the scalar mean of all elements of a as a 1×1 node.
func (g *Graph) Mean(a *Node) *Node {
	out := g.alloc(1, 1, false)
	var s float64
	for _, v := range a.Val.Data {
		s += v
	}
	inv := 1 / float64(len(a.Val.Data))
	out.Data[0] = s * inv
	n := g.push(out, opMean, a.requiresGrad)
	n.a = a
	n.f1 = inv
	return n
}

// Dot returns, per row i, Σ_j a_ij·v_j as a batch×1 node. v is constant.
// Used to decode a (relaxed) one-hot row into a scalar value such as a
// fanout factor.
func (g *Graph) Dot(a *Node, v []float64) *Node {
	if a.Val.Cols != len(v) {
		panic("tensor: Dot length mismatch")
	}
	out := g.alloc(a.Val.Rows, 1, false)
	for i := 0; i < a.Val.Rows; i++ {
		arow := a.Val.Row(i)
		var s float64
		for j, av := range arow {
			s += float64(av * v[j])
		}
		out.Data[i] = s
	}
	n := g.push(out, opDot, a.requiresGrad)
	n.a = a
	n.auxF = v
	return n
}

// Reciprocal returns 1/max(a, ε) elementwise.
func (g *Graph) Reciprocal(a *Node) *Node {
	out := g.alloc(a.Val.Rows, a.Val.Cols, false)
	for i, v := range a.Val.Data {
		out.Data[i] = 1 / math.Max(v, logEps)
	}
	n := g.push(out, opReciprocal, a.requiresGrad)
	n.a = a
	return n
}

// SliceCols returns the column range [off, off+width) of a as a new node.
func (g *Graph) SliceCols(a *Node, off, width int) *Node {
	if off < 0 || off+width > a.Val.Cols {
		panic("tensor: SliceCols out of range")
	}
	out := g.alloc(a.Val.Rows, width, false)
	for i := 0; i < a.Val.Rows; i++ {
		copy(out.Row(i), a.Val.Row(i)[off:off+width])
	}
	n := g.push(out, opSliceCols, a.requiresGrad)
	n.a = a
	n.i1, n.i2 = off, width
	return n
}

// SliceRows returns rows [off, off+count) of a as a new node.
func (g *Graph) SliceRows(a *Node, off, count int) *Node {
	if off < 0 || off+count > a.Val.Rows {
		panic("tensor: SliceRows out of range")
	}
	cols := a.Val.Cols
	out := g.alloc(count, cols, false)
	copy(out.Data, a.Val.Data[off*cols:(off+count)*cols])
	n := g.push(out, opSliceRows, a.requiresGrad)
	n.a = a
	n.i1, n.i2 = off, count
	return n
}

// RangeProb computes, per row, the probability mass that softmax(logits)
// places inside the 0/1 mask: out_i = Σ_j mask_ij · softmax(logits_i)_j.
// This is the differentiable P(X ∈ R | x_<i) at the heart of progressive
// sampling. The mask is constant.
func (g *Graph) RangeProb(logits *Node, mask *Tensor) *Node {
	if !logits.Val.SameShape(mask) {
		panic("tensor: RangeProb shape mismatch")
	}
	rows, cols := logits.Val.Rows, logits.Val.Cols
	soft := g.alloc(rows, cols, false)
	out := g.alloc(rows, 1, false)
	for i := 0; i < rows; i++ {
		SoftmaxRowInto(soft.Row(i), logits.Val.Row(i))
		var p float64
		srow := soft.Row(i)
		mrow := mask.Row(i)
		for j, sv := range srow {
			p += float64(sv * mrow[j])
		}
		out.Data[i] = p
	}
	n := g.push(out, opRangeProb, logits.requiresGrad)
	n.a = logits
	n.aux1 = soft
	n.aux2 = mask
	return n
}

// STGumbel performs straight-through Gumbel-Softmax sampling restricted to
// the mask support: the forward value is a hard one-hot drawn from the
// in-mask renormalized softmax with Gumbel noise at temperature tau; the
// backward pass uses the soft (relaxed) sample's Jacobian so gradients flow
// through the categorical choice, enabling Differentiable Progressive
// Sampling (Wu & Cong, SIGMOD'21). Fractional mask entries in (0, 1] act as
// multiplicative priors (log-mask added to the logits), which is how
// intervalized columns express partial bin coverage.
func (g *Graph) STGumbel(logits *Node, mask *Tensor, tau float64, rng *rand.Rand) *Node {
	if !logits.Val.SameShape(mask) {
		panic("tensor: STGumbel shape mismatch")
	}
	if tau <= 0 {
		panic("tensor: STGumbel requires tau > 0")
	}
	rows, cols := logits.Val.Rows, logits.Val.Cols
	soft := g.alloc(rows, cols, false) // relaxed sample, kept for backward
	out := g.alloc(rows, cols, true)   // hard one-hot
	perturbed := g.alloc(1, cols, false).Data
	for i := 0; i < rows; i++ {
		lrow := logits.Val.Row(i)
		mrow := mask.Row(i)
		best, bestIdx := math.Inf(-1), -1
		for j := range perturbed {
			if mrow[j] == 0 {
				perturbed[j] = math.Inf(-1)
				continue
			}
			// The conversion rounds the draw, whose scaling some GOARCHes would
			// otherwise fuse with the add.
			gnoise := -math.Log(-math.Log(float64(rng.Float64()) + 1e-20))
			v := lrow[j]
			if m := mrow[j]; m != 1 {
				v += math.Log(m) // log 1 = 0: full-coverage bins add nothing
			}
			perturbed[j] = (v + gnoise) / tau
			if perturbed[j] > best {
				best, bestIdx = perturbed[j], j
			}
		}
		if bestIdx < 0 {
			panic("tensor: STGumbel empty mask row")
		}
		SoftmaxRowInto(soft.Row(i), perturbed)
		out.Set(i, bestIdx, 1)
	}
	n := g.push(out, opSTGumbel, logits.requiresGrad)
	n.a = logits
	n.aux1 = soft
	n.f1 = tau
	return n
}

// LayerNorm normalizes every row of a to zero mean and unit variance, then
// applies the learned elementwise gain and bias (both 1×cols).
func (g *Graph) LayerNorm(a, gain, bias *Node, eps float64) *Node {
	rows, cols := a.Val.Rows, a.Val.Cols
	if gain.Val.Cols != cols || bias.Val.Cols != cols || gain.Val.Rows != 1 || bias.Val.Rows != 1 {
		panic("tensor: LayerNorm parameter shape mismatch")
	}
	out := g.alloc(rows, cols, false)
	xhat := g.alloc(rows, cols, false)
	invStd := g.alloc(1, rows, false)
	for i := 0; i < rows; i++ {
		arow := a.Val.Row(i)
		var mean float64
		for _, v := range arow {
			mean += v
		}
		mean /= float64(cols)
		var varsum float64
		for _, v := range arow {
			d := v - mean
			varsum += float64(d * d)
		}
		inv := 1 / math.Sqrt(varsum/float64(cols)+eps)
		invStd.Data[i] = inv
		xrow := xhat.Row(i)
		orow := out.Row(i)
		for j, v := range arow {
			xrow[j] = (v - mean) * inv
			orow[j] = float64(xrow[j]*gain.Val.Data[j]) + bias.Val.Data[j]
		}
	}
	n := g.push(out, opLayerNorm, a.requiresGrad || gain.requiresGrad || bias.requiresGrad)
	n.a, n.b, n.c = a, gain, bias
	n.aux1 = xhat
	n.aux2 = invStd
	return n
}

// backstep propagates n.Grad into n's operands. Temporaries come from the
// tape's pool, so a warm tape's backward pass performs no heap allocation.
func (g *Graph) backstep(n *Node) {
	switch n.op {
	case opMatMul, opEmbed:
		a, b := n.a, n.b
		if a.requiresGrad {
			g.MatMulTransBAddInto(a.Grad, n.Grad, b.Val)
		}
		switch {
		case !b.requiresGrad:
		case n.op == opEmbed:
			g.embedGradAdd(b.Grad, a.Val, n.Grad)
		default:
			g.matMulTransAAdd(b.Grad, a.Val, n.Grad)
		}
	case opMaskedMatMul:
		win := window{n.i1, n.i2, n.i2 + n.Val.Cols}
		g.maskedWindowBackward(n.a, n.b, n.Grad, n.aux1, n.aux2, n.mwc.spans, win)
	case opAddRow:
		a, b := n.a, n.b
		if a.requiresGrad {
			a.Grad.AddInPlace(n.Grad)
		}
		if b.requiresGrad {
			bg := b.Grad.Data[n.i1 : n.i1+n.Val.Cols]
			for i := 0; i < n.Grad.Rows; i++ {
				grow := n.Grad.Row(i)
				for j, gv := range grow {
					bg[j] += gv
				}
			}
		}
	case opAdd:
		if n.a.requiresGrad {
			n.a.Grad.AddInPlace(n.Grad)
		}
		if n.b.requiresGrad {
			n.b.Grad.AddInPlace(n.Grad)
		}
	case opSub:
		if n.a.requiresGrad {
			n.a.Grad.AddInPlace(n.Grad)
		}
		if n.b.requiresGrad {
			for i, gv := range n.Grad.Data {
				n.b.Grad.Data[i] -= gv
			}
		}
	case opMulElem:
		a, b := n.a, n.b
		if a.requiresGrad {
			for i, gv := range n.Grad.Data {
				a.Grad.Data[i] += float64(gv * b.Val.Data[i])
			}
		}
		if b.requiresGrad {
			for i, gv := range n.Grad.Data {
				b.Grad.Data[i] += float64(gv * a.Val.Data[i])
			}
		}
	case opReLU:
		a := n.a
		for i, gv := range n.Grad.Data {
			if a.Val.Data[i] > 0 {
				a.Grad.Data[i] += gv
			}
		}
	case opScale:
		a, s := n.a, n.f1
		for i, gv := range n.Grad.Data {
			a.Grad.Data[i] += float64(gv * s)
		}
	case opLog:
		a := n.a
		for i, gv := range n.Grad.Data {
			a.Grad.Data[i] += gv / math.Max(a.Val.Data[i], logEps)
		}
	case opSquare:
		a := n.a
		for i, gv := range n.Grad.Data {
			a.Grad.Data[i] += float64(2 * gv * a.Val.Data[i])
		}
	case opMean:
		a := n.a
		gv := float64(n.Grad.Data[0] * n.f1)
		for i := range a.Grad.Data {
			a.Grad.Data[i] += gv
		}
	case opDot:
		a, v := n.a, n.auxF
		for i := 0; i < a.Val.Rows; i++ {
			gv := n.Grad.Data[i]
			if gv == 0 {
				continue
			}
			grow := a.Grad.Row(i)
			for j, vv := range v {
				grow[j] += float64(gv * vv)
			}
		}
	case opReciprocal:
		a := n.a
		for i, gv := range n.Grad.Data {
			d := math.Max(a.Val.Data[i], logEps)
			a.Grad.Data[i] -= gv / (d * d)
		}
	case opSliceCols:
		a, off, width := n.a, n.i1, n.i2
		for i := 0; i < a.Val.Rows; i++ {
			grow := n.Grad.Row(i)
			arow := a.Grad.Row(i)[off : off+width]
			for j, gv := range grow {
				arow[j] += gv
			}
		}
	case opSliceRows:
		a, off, count := n.a, n.i1, n.i2
		cols := a.Val.Cols
		dst := a.Grad.Data[off*cols : (off+count)*cols]
		for i, gv := range n.Grad.Data {
			dst[i] += gv
		}
	case opRangeProb:
		// d p/d logit_j = s_j (mask_j − p).
		a, soft, mask := n.a, n.aux1, n.aux2
		for i := 0; i < soft.Rows; i++ {
			gv := n.Grad.Data[i]
			if gv == 0 {
				continue
			}
			p := n.Val.Data[i]
			srow := soft.Row(i)
			mrow := mask.Row(i)
			lrow := a.Grad.Row(i)
			for j, sv := range srow {
				lrow[j] += float64(gv * sv * (mrow[j] - p))
			}
		}
	case opSTGumbel:
		// Straight-through: treat out as soft. Softmax Jacobian at
		// temperature tau: dy_j/dlogit_k = (1/tau)·y_j(δ_jk − y_k).
		a, soft, tau := n.a, n.aux1, n.f1
		for i := 0; i < soft.Rows; i++ {
			grow := n.Grad.Row(i)
			srow := soft.Row(i)
			var dot float64
			for j, gv := range grow {
				dot += float64(gv * srow[j])
			}
			lrow := a.Grad.Row(i)
			for j, sv := range srow {
				if sv == 0 {
					continue
				}
				lrow[j] += sv * (grow[j] - dot) / tau
			}
		}
	case opLayerNorm:
		a, gain, bias := n.a, n.b, n.c
		xhat, invStd := n.aux1, n.aux2
		rows, cols := n.Val.Rows, n.Val.Cols
		var dxhat []float64
		if a.requiresGrad {
			dxhat = g.alloc(1, cols, false).Data
		}
		for i := 0; i < rows; i++ {
			grow := n.Grad.Row(i)
			xrow := xhat.Row(i)
			if gain.requiresGrad {
				for j, gv := range grow {
					gain.Grad.Data[j] += float64(gv * xrow[j])
				}
			}
			if bias.requiresGrad {
				for j, gv := range grow {
					bias.Grad.Data[j] += gv
				}
			}
			if a.requiresGrad {
				// dL/dx = inv/N · (N·dxhat − Σdxhat − xhat·Σ(dxhat·xhat))
				N := float64(cols)
				var sumD, sumDX float64
				for j, gv := range grow {
					dxhat[j] = float64(gv * gain.Val.Data[j])
					sumD += dxhat[j]
					sumDX += float64(dxhat[j] * xrow[j])
				}
				arow := a.Grad.Row(i)
				inv := invStd.Data[i]
				for j := range dxhat {
					arow[j] += float64(inv / N * (float64(N*dxhat[j]) - sumD - float64(xrow[j]*sumDX)))
				}
			}
		}
	case opCopyCols:
		src, off := n.a, n.i1
		for i := 0; i < src.Val.Rows; i++ {
			grow := n.Grad.Row(i)[off : off+src.Val.Cols]
			srow := src.Grad.Row(i)
			for j, gv := range grow {
				srow[j] += gv
			}
		}
	case opMaskedBand:
		x, w, b := n.a, n.b, n.c
		win := window{n.i1, n.i2, n.i3}
		off, end := win.colOff, win.colEnd
		rows, width := n.Val.Rows, end-off
		// Back through the ReLU: the band's pre-activation gradient.
		gpre := g.alloc(rows, width, false)
		for i := 0; i < rows; i++ {
			vrow := n.Val.Row(i)[off:end]
			grow := n.Grad.Row(i)[off:end]
			prow := gpre.Row(i)
			for j, v := range vrow {
				if v > 0 {
					prow[j] = grow[j]
				} else {
					prow[j] = 0
				}
			}
		}
		if b.requiresGrad {
			bg := b.Grad.Data[off:end]
			for i := 0; i < rows; i++ {
				for j, gv := range gpre.Row(i) {
					bg[j] += gv
				}
			}
		}
		g.maskedWindowBackward(x, w, gpre, n.aux1, n.aux2, n.mwc.spans, win)
	case opAttendStep:
		g.attendStepBackward(n)
	default:
		panic("tensor: backstep on unknown op")
	}
}

// maskedWindowBackward propagates G, the gradient of
// x[:, :rowEnd]·(W∘M)[:rowEnd, colOff:colEnd], into x and W: the shared
// backward of MaskedMatMulWindow and MaskedLinearReLUInto. mw is the cached
// product saved at forward time and mask the fixed mask.
func (g *Graph) maskedWindowBackward(x, w *Node, grad, mask, mw *Tensor, spans []int, win window) {
	rows, width := win.rowEnd, win.colEnd-win.colOff
	if x.requiresGrad {
		// dX[:, :rowEnd] += G·(W∘M)[window]ᵀ.
		g.matMulTransBAdd(x.Grad, grad, mw, rows, win.colOff)
	}
	if w.requiresGrad && rows > 0 && width > 0 {
		// dW[window] += (X[:, :rowEnd]ᵀ·G)∘M: the product covers the whole
		// window, and the mask is zero outside each row's span, so only
		// the span takes the mask multiply.
		g.prod = reshape(g.prod, rows, width)
		tmp := g.prod
		runKernel(kernelCall{
			dst: tmp, a: g.transpose(x.Val, grad.Rows, 0, rows), b: grad, k: grad.Rows, head: width,
		})
		md := mask.Data
		wg := w.Grad.Data
		cols := w.Val.Cols
		for r := 0; r < rows; r++ {
			s, e := clipSpan(spans, r, win.colOff, win.colEnd)
			trow := tmp.Data[r*width : (r+1)*width]
			for c := s; c < e; c++ {
				wg[r*cols+c] += float64(trow[c-win.colOff] * md[r*cols+c])
			}
		}
	}
}
