package nn

import (
	"math"
	"sort"

	"sam/internal/tensor"
)

// transformerBatch is the Transformer's BatchInference. It is built around
// the prefix activation cache (the classic KV cache): ancestral sampling
// extends each lane's token sequence by one position per column step, so a
// step appends position i — one B-row q/k/v projection, one attention row
// over the cached keys/values, one feed-forward — instead of re-running
// the transformer over the whole prefix. K/V buffers are per layer and
// position-major (row p*B+l holds position p of lane l), so the
// projections of the appended position are single B×dModel GEMMs into
// precomputed views. Attention and layer norms stay scalar per
// (lane, position); they are O(d) per row versus the projections' O(d²).
type transformerBatch struct {
	t     *Transformer
	batch int

	x *tensor.Tensor // B × inDim, 0/1

	// Per-layer K/V caches: kCache[l] row p*B+lane holds position p's key
	// at layer l; kViews[l][p]/vViews[l][p] expose position p's B rows so
	// the projections write straight into the cache.
	kCache, vCache []*tensor.Tensor
	kViews, vViews [][]*tensor.Tensor

	// normed holds the final layer-normed hidden state of every cached
	// position (n·B × dModel); writeBlock projects output logits from it.
	normed *tensor.Tensor

	// Scratch for the position currently being appended, all B rows wide:
	// h is the residual stream, ln the pre-norm/projection temporary.
	h, ln, q, ctx *tensor.Tensor // B × dModel
	ff            *tensor.Tensor // B × ff

	scores   []float64
	colViews []*tensor.Tensor // B × colSizes[i] views over a shared buffer

	// Cache state: positions [0, validPos) have correct K/V at every layer
	// and correct final normed states for the current input. ForwardCol
	// shrinks it to exclude the positions the inputs set since the last
	// ForwardCol feed, from dirty, the lowest of them (inDim when none);
	// Reset and any weight MarkDirty drop it whole.
	validPos   int
	dirty      int
	params     []*tensor.Tensor
	paramStamp uint64
}

// NewBatchInference allocates batched scratch sized for t and b lanes; the
// K/V prefix cache is the only per-lane state that grows with the column
// count (2·layers·n·dModel floats per lane, plus n·dModel for the final
// hidden states). All allocation happens here — appended positions reuse
// these buffers, so the steady-state forward path performs none.
func (t *Transformer) NewBatchInference(b int) BatchInference {
	if b < 1 {
		panic("nn: batch inference needs at least one lane")
	}
	n := len(t.colSizes)
	bi := &transformerBatch{
		t:      t,
		batch:  b,
		x:      tensor.New(b, t.inDim),
		normed: tensor.New(n*b, t.dModel),
		h:      tensor.New(b, t.dModel),
		ln:     tensor.New(b, t.dModel),
		q:      tensor.New(b, t.dModel),
		ctx:    tensor.New(b, t.dModel),
		ff:     tensor.New(b, t.ff),
		scores: make([]float64, n),
		dirty:  t.inDim,
		params: t.Params(),
	}
	bi.paramStamp = ^uint64(0) // force a version sync on first use
	for range t.layers {
		k := tensor.New(n*b, t.dModel)
		v := tensor.New(n*b, t.dModel)
		bi.kCache = append(bi.kCache, k)
		bi.vCache = append(bi.vCache, v)
		view := func(full *tensor.Tensor) []*tensor.Tensor {
			vs := make([]*tensor.Tensor, n)
			for p := 0; p < n; p++ {
				vs[p] = tensor.FromSlice(b, t.dModel, full.Data[p*b*t.dModel:(p+1)*b*t.dModel])
			}
			return vs
		}
		bi.kViews = append(bi.kViews, view(k))
		bi.vViews = append(bi.vViews, view(v))
	}
	maxSize := 0
	for _, s := range t.colSizes {
		if s > maxSize {
			maxSize = s
		}
	}
	colBuf := make([]float64, b*maxSize)
	for _, s := range t.colSizes {
		bi.colViews = append(bi.colViews, tensor.FromSlice(b, s, colBuf[:b*s]))
	}
	return bi
}

// Batch returns the lane count.
func (b *transformerBatch) Batch() int { return b.batch }

// Reset clears every input and drops the K/V cache.
func (b *transformerBatch) Reset() {
	clear(b.x.Data)
	b.validPos = 0
	b.dirty = b.t.inDim
}

// SetInput sets x[lane][flat] = 1 and lowers the dirty mark.
func (b *transformerBatch) SetInput(lane, flat int) {
	x := &b.x.Data[lane*b.t.inDim+flat]
	if *x != 0 {
		return
	}
	*x = 1
	b.dirty = min(b.dirty, flat)
}

// syncVersion drops the K/V cache when any trainable tensor has been
// mutated (summed tensor versions strictly increase on MarkDirty).
func (b *transformerBatch) syncVersion() {
	var stamp uint64
	for _, p := range b.params {
		stamp += p.Version()
	}
	if stamp != b.paramStamp {
		b.validPos = 0
		b.paramStamp = stamp
	}
}

// forwardTo extends the cached prefix through position p, appending one
// position at a time; positions below validPos are served from the cache.
func (b *transformerBatch) forwardTo(p int) {
	b.syncVersion()
	if b.dirty < b.t.inDim {
		// An input of column c only alters the token at position c+1
		// (tokens are shifted right behind SOS), so positions 0..c keep
		// their cached K/V; last-column inputs feed no token.
		c := sort.SearchInts(b.t.offsets, b.dirty+1) - 1
		b.validPos = min(b.validPos, c+1)
		b.dirty = b.t.inDim
	}
	for pos := b.validPos; pos <= p; pos++ {
		b.appendPos(pos)
	}
	if b.validPos <= p {
		b.validPos = p + 1
	}
}

// appendPos runs the transformer for position pos of every lane on top of
// the cached prefix: it embeds the token, projects q and the new k/v rows,
// attends over cached keys/values 0..pos, applies the feed-forward block,
// and stores the final layer-normed state. It mirrors the training
// chain's step exactly (pre-norm blocks, causal attention, shifted
// tokens) — causality is what makes the append independent of positions
// after pos.
func (b *transformerBatch) appendPos(pos int) {
	t := b.t
	B := b.batch

	// Token: SOS or the shifted column embedding, plus the position row.
	posRow := t.pos.Row(pos)
	for l := 0; l < B; l++ {
		row := b.h.Row(l)
		if pos == 0 {
			copy(row, t.sos.Data)
		} else {
			for j := range row {
				row[j] = 0
			}
			off, size := t.offsets[pos-1], t.colSizes[pos-1]
			xrow := b.x.Row(l)
			for c := 0; c < size; c++ {
				xv := xrow[off+c]
				if xv == 0 {
					continue
				}
				emb := t.wEmb.Row(off + c)
				for j, ev := range emb {
					row[j] += xv * ev
				}
			}
		}
		for j, pv := range posRow {
			row[j] += pv
		}
	}

	scale := 1 / math.Sqrt(float64(t.dk))
	for li, layer := range t.layers {
		// Pre-norm attention block: project this position, cache its k/v.
		for r := 0; r < B; r++ {
			layerNormRow(b.ln.Row(r), b.h.Row(r), layer.ln1Gain.Data, layer.ln1Bias.Data, 1e-5)
		}
		tensor.MatMulInto(b.q, b.ln, layer.wq)
		tensor.MatMulInto(b.kViews[li][pos], b.ln, layer.wk)
		tensor.MatMulInto(b.vViews[li][pos], b.ln, layer.wv)
		for i := range b.ctx.Data {
			b.ctx.Data[i] = 0
		}
		k, v := b.kCache[li], b.vCache[li]
		for hd := 0; hd < t.heads; hd++ {
			lo := hd * t.dk
			hi := lo + t.dk
			for l := 0; l < B; l++ {
				qi := b.q.Row(l)
				scores := b.scores[:pos+1]
				maxv := math.Inf(-1)
				for j := 0; j <= pos; j++ {
					kj := k.Row(j*B + l)
					var s float64
					for c := lo; c < hi; c++ {
						s += qi[c] * kj[c]
					}
					scores[j] = s * scale
					if scores[j] > maxv {
						maxv = scores[j]
					}
				}
				var sum float64
				for j := range scores {
					scores[j] = math.Exp(scores[j] - maxv)
					sum += scores[j]
				}
				inv := 1 / sum
				ctxRow := b.ctx.Row(l)
				for j := 0; j <= pos; j++ {
					pj := scores[j] * inv
					vj := v.Row(j*B + l)
					for c := lo; c < hi; c++ {
						ctxRow[c] += pj * vj[c]
					}
				}
			}
		}
		tensor.MatMulInto(b.ln, b.ctx, layer.wo)
		addRows(b.h, b.ln)

		// Pre-norm feed-forward block.
		for r := 0; r < B; r++ {
			layerNormRow(b.ln.Row(r), b.h.Row(r), layer.ln2Gain.Data, layer.ln2Bias.Data, 1e-5)
		}
		tensor.MatMulInto(b.ff, b.ln, layer.w1)
		addRowBiasReLURange(b.ff, layer.b1.Data, 0, t.ff)
		tensor.MatMulInto(b.ln, b.ff, layer.w2)
		addRowBias(b.ln, layer.b2.Data)
		addRows(b.h, b.ln)
	}

	for l := 0; l < B; l++ {
		layerNormRow(b.normed.Row(pos*B+l), b.h.Row(l), t.lnFGain.Data, t.lnFBias.Data, 1e-5)
	}
}

// writeBlock projects position i's hidden state of every lane onto column
// i's output block; put(l) supplies the destination slice for lane l.
func (b *transformerBatch) writeBlock(i int, put func(l int) []float64) {
	t := b.t
	off, size := t.offsets[i], t.colSizes[i]
	for l := 0; l < b.batch; l++ {
		h := b.normed.Row(i*b.batch + l)
		dst := put(l)
		copy(dst, t.bOut.Data[off:off+size])
		for kk, hv := range h {
			if hv == 0 {
				continue
			}
			wrow := t.wOut.Data[kk*t.inDim+off : kk*t.inDim+off+size]
			for j, wv := range wrow {
				dst[j] += hv * wv
			}
		}
	}
}

// ForwardCol computes only column i's B×colSizes[i] logit block. With a
// warm prefix cache this appends at most one position — the column-step
// cost drops from O(i) re-projected positions to O(1) plus the O(i)
// attention dot products.
func (b *transformerBatch) ForwardCol(i int) *tensor.Tensor {
	b.forwardTo(i)
	out := b.colViews[i]
	b.writeBlock(i, out.Row)
	return out
}

// addRowBias adds the 1×cols bias row to every row of t.
func addRowBias(t *tensor.Tensor, bias []float64) {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)[:len(bias)]
		for j, bv := range bias {
			row[j] += bv
		}
	}
}

// addRows adds o to t elementwise (same shape).
func addRows(t, o *tensor.Tensor) {
	td := t.Data
	for i, v := range o.Data[:len(td)] {
		td[i] += v
	}
}

// layerNormRow normalizes src into dst with the given gain/bias rows.
func layerNormRow(dst, src, gain, bias []float64, eps float64) {
	var mean float64
	for _, v := range src {
		mean += v
	}
	mean /= float64(len(src))
	var varsum float64
	for _, v := range src {
		d := v - mean
		varsum += d * d
	}
	inv := 1 / math.Sqrt(varsum/float64(len(src))+eps)
	for j, v := range src {
		dst[j] = (v-mean)*inv*gain[j] + bias[j]
	}
}
