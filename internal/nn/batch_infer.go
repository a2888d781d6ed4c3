package nn

import "sam/internal/tensor"

// madeBatch is MADE's BatchInference: per-layer B×width activation
// matrices driven by the span-aware masked GEMM kernels, so one forward
// pass of B lanes costs one masked matmul per layer instead of B.
type madeBatch struct {
	m    *MADE
	x    *tensor.Tensor   // B × inDim
	acts []*tensor.Tensor // per layer, B × layer width
	// colViews[i] is a B×colSizes[i] view over a shared buffer sized for
	// the widest column; ForwardCol writes into it so no per-call tensor
	// headers are allocated.
	colViews []*tensor.Tensor
	// suffix[i] records that layer i's mask spans are suffix-monotone
	// (always true for NewMADE's sorted-degree masks), enabling the
	// span-hoisted suffix kernels.
	suffix []bool
	// wts[l] caches layer l's masked weight product transposed (refreshed
	// lazily against W.Version()), feeding the prefix-dot kernels; entry 0
	// is nil because the sparse one-hot input favors the axpy form there,
	// and the output layer keeps none because its block projection runs the
	// zero-compacted axpy over the masked product in its native layout.
	wts    []*tensor.Tensor
	wtSeen []uint64
	// prefixes[l][j] is the input prefix feeding unit j of layer l — the
	// transpose of the suffix spans. Output-layer blocks share one uniform
	// prefix (the column's hidden prefix), so no table is kept for it.
	prefixes [][]int

	// Prefix activation cache (nil valid = caching and prefix restriction
	// disabled, non-suffix masks). ForwardCol(i) evaluates each hidden
	// layer only up to the unit prefix m.colHidden[i] that column i's
	// logits depend on. valid[l] is the width of acts[l] whose values are
	// correct for the current X: ancestral sampling changes one input
	// column per step, and sorted degrees mean that column reaches only a
	// suffix of each hidden layer, so the valid prefix survives from step
	// to step and a column step recomputes just [valid[l], head) instead
	// of [0, head).
	// InvalidateFrom shrinks the widths; forward passes grow them.
	valid []int
	// params and paramStamp version-track every trainable tensor: any
	// MarkDirty (an optimizer step) advances the summed version, dropping
	// the whole cache. Weight retransposition is still handled per layer by
	// wtSeen; the stamp additionally covers biases, which the un-cached
	// path read fresh every pass.
	params     []*tensor.Tensor
	paramStamp uint64

	// nzIdx[l] lists the (ascending) nonzero x indices of lane l within the
	// prefix [0, nzValid), maintained from the same InvalidateFrom signals
	// as the activation cache. Ancestral sampling sets one one-hot per
	// column, so the input layer's recompute walks these few indices
	// instead of scanning the whole sampled prefix for nonzeros every step.
	nzIdx   [][]int
	nzValid int
	// hNZ[l] lists the (ascending) nonzero indices of lane l's final hidden
	// activations within [0, hValid). The cache invariant makes the valid
	// prefix's values stable between invalidations, so the output-block
	// projection reuses these lists instead of rescanning half-zero ReLU
	// rows every column step; recomputed tails are rescanned once.
	hNZ    [][]int
	hValid int
}

// NewBatchInference allocates batched scratch sized for m and b lanes.
func (m *MADE) NewBatchInference(b int) BatchInference {
	if b < 1 {
		panic("nn: batch inference needs at least one lane")
	}
	bi := &madeBatch{m: m, x: tensor.New(b, m.inDim)}
	for _, l := range m.layers {
		bi.acts = append(bi.acts, tensor.New(b, l.W.Cols))
		bi.suffix = append(bi.suffix, tensor.SpansSuffixMonotone(l.cache.Spans(), l.W.Cols))
	}
	maxSize := 0
	for _, s := range m.colSizes {
		if s > maxSize {
			maxSize = s
		}
	}
	colBuf := make([]float64, b*maxSize)
	for _, s := range m.colSizes {
		bi.colViews = append(bi.colViews, tensor.FromSlice(b, s, colBuf[:b*s]))
	}
	allSuffix := true
	for _, ok := range bi.suffix {
		allSuffix = allSuffix && ok
	}
	if allSuffix {
		last := len(m.layers) - 1
		bi.wts = make([]*tensor.Tensor, len(m.layers))
		bi.wtSeen = make([]uint64, len(m.layers))
		bi.prefixes = make([][]int, len(m.layers))
		for l := 1; l < last; l++ {
			w := m.layers[l].W
			bi.wts[l] = tensor.New(w.Cols, w.Rows)
			pref := make([]int, w.Cols)
			for j := range pref {
				pref[j] = countStartsBelow(m.layers[l].cache.Spans(), w.Rows, j+1)
			}
			bi.prefixes[l] = pref
		}
		bi.valid = make([]int, last)
		bi.params = m.Params()
		bi.paramStamp = ^uint64(0) // force a version sync on first use
		bi.nzIdx = make([][]int, b)
		nzBuf := make([]int, b*len(m.colSizes))
		for l := range bi.nzIdx {
			// Sized for the sampling workload (one one-hot per column);
			// denser inputs grow a lane's list on first use.
			bi.nzIdx[l] = nzBuf[l*len(m.colSizes) : l*len(m.colSizes) : (l+1)*len(m.colSizes)]
		}
		bi.hNZ = make([][]int, b)
		hw := m.layers[last].W.Rows
		hBuf := make([]int, b*hw)
		for l := range bi.hNZ {
			bi.hNZ[l] = hBuf[l*hw : l*hw : (l+1)*hw]
		}
	}
	return bi
}

// syncVersion drops the activation cache when any trainable tensor has
// been mutated (summed tensor versions strictly increase on MarkDirty).
func (b *madeBatch) syncVersion() {
	var stamp uint64
	for _, p := range b.params {
		stamp += p.Version()
	}
	if stamp != b.paramStamp {
		for l := range b.valid {
			b.valid[l] = 0
		}
		b.clampHNZ(0)
		b.paramStamp = stamp
	}
}

// InvalidateFrom shrinks the cached-activation widths to exclude every
// hidden unit reachable from input columns at flat index lo or beyond.
// Layer 0's stale boundary is the span start of input lo (suffix-monotone:
// later inputs start no earlier); each deeper layer's boundary is the span
// start of the shallower layer's first stale unit.
func (b *madeBatch) InvalidateFrom(lo int) {
	if b.valid == nil || lo >= b.m.inDim {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if lo < b.nzValid {
		// Entries at or past lo may have changed; drop them from every
		// lane's nonzero list (ascending, so they sit at the tail) and let
		// the next forward rescan that range.
		for l := range b.nzIdx {
			lst := b.nzIdx[l]
			for len(lst) > 0 && lst[len(lst)-1] >= lo {
				lst = lst[:len(lst)-1]
			}
			b.nzIdx[l] = lst
		}
		b.nzValid = lo
	}
	stale := b.m.layers[0].cache.Spans()[2*lo]
	if stale < b.valid[0] {
		b.valid[0] = stale
	}
	for l := 1; l < len(b.valid); l++ {
		prev := b.valid[l-1]
		if prev >= b.m.layers[l].W.Rows {
			break // nothing stale reaches this layer
		}
		stale = b.m.layers[l].cache.Spans()[2*prev]
		if stale >= b.valid[l] {
			break
		}
		b.valid[l] = stale
	}
	b.clampHNZ(b.valid[len(b.valid)-1])
}

// SetInput sets x[lane][flat] = 1 and records it in the lane's nonzero
// list directly: the bit and its bookkeeping update together, so the list
// invariant (every nonzero below nzValid is listed) holds without ever
// scanning the input row. The SetInput contract (flat at or past the last
// invalidation, nondecreasing per lane) keeps the lists ascending.
func (b *madeBatch) SetInput(lane, flat int) {
	b.x.Data[lane*b.m.inDim+flat] = 1
	if b.nzIdx == nil {
		return
	}
	b.nzIdx[lane] = append(b.nzIdx[lane], flat)
	if flat >= b.nzValid {
		b.nzValid = flat + 1
	}
}

// ensureNZ extends every lane's nonzero index list to cover x columns
// [0, kEnd). Each input entry is scanned at most once between
// invalidations, so a full sampling sweep scans the input row once total
// instead of once per column step.
func (b *madeBatch) ensureNZ(kEnd int) {
	if b.nzValid >= kEnd {
		return
	}
	cols := b.m.inDim
	for l := range b.nzIdx {
		row := b.x.Data[l*cols+b.nzValid : l*cols+kEnd]
		lst := b.nzIdx[l]
		for o, v := range row {
			if v != 0 {
				lst = append(lst, b.nzValid+o)
			}
		}
		b.nzIdx[l] = lst
	}
	b.nzValid = kEnd
}

// ensureHNZ extends every lane's final-hidden nonzero list to cover units
// [0, head); hiddenFor has already made that prefix valid, and the cache
// invariant keeps its values stable until the next invalidation clamp.
func (b *madeBatch) ensureHNZ(head int) {
	if b.hValid >= head {
		return
	}
	h := b.acts[len(b.m.layers)-2]
	for l := range b.hNZ {
		row := h.Data[l*h.Cols+b.hValid : l*h.Cols+head]
		lst := b.hNZ[l]
		for o, v := range row {
			if v != 0 {
				lst = append(lst, b.hValid+o)
			}
		}
		b.hNZ[l] = lst
	}
	b.hValid = head
}

// clampHNZ drops final-hidden nonzero entries at or past bound (ascending,
// so they sit at the tail); the next ensureHNZ rescans from there.
func (b *madeBatch) clampHNZ(bound int) {
	if b.hNZ == nil || bound >= b.hValid {
		return
	}
	for l := range b.hNZ {
		lst := b.hNZ[l]
		for len(lst) > 0 && lst[len(lst)-1] >= bound {
			lst = lst[:len(lst)-1]
		}
		b.hNZ[l] = lst
	}
	b.hValid = bound
}

// wtFor returns layer l's transposed masked product, retransposing when
// the weights have changed since the last call (same version protocol as
// MaskedWeight's cache).
func (b *madeBatch) wtFor(l int) *tensor.Tensor {
	lay := b.m.layers[l]
	if v := lay.W.Version() + 1; b.wtSeen[l] != v {
		src := lay.cache.Get()
		dst := b.wts[l]
		for i := 0; i < src.Rows; i++ {
			for j, val := range src.Row(i) {
				dst.Data[j*src.Rows+i] = val
			}
		}
		b.wtSeen[l] = v
	}
	return b.wts[l]
}

// countStartsBelow returns the size of the leading run of rows whose span
// start is below bound (starts are nondecreasing for suffix-monotone
// spans).
func countStartsBelow(spans []int, rows, bound int) int {
	n := 0
	for k := 0; k < rows; k++ {
		if spans[2*k] < bound {
			n = k + 1
		} else {
			break
		}
	}
	return n
}

// Batch returns the lane count.
func (b *madeBatch) Batch() int { return b.x.Rows }

// X returns the reusable B×InDim input matrix.
func (b *madeBatch) X() *tensor.Tensor { return b.x }

// hidden runs all layers but the last, returning the final hidden
// activations. Sorted-degree masks take the suffix kernel, which skips the
// masked-out half of every layer with all span bookkeeping hoisted out of
// the inner loops; other masks fall back to the dense tiled kernel (the
// cached product is zero where masked, so dense is always correct), which
// at these widths beats the per-row span-intersection machinery.
func (b *madeBatch) layerInto(i int, out, in *tensor.Tensor) {
	l := b.m.layers[i]
	if b.suffix[i] {
		tensor.MatMulMaskedSuffixInto(out, in, l.cache.Get(), l.cache.Spans())
	} else {
		tensor.MatMulInto(out, in, l.cache.Get())
	}
}

func (b *madeBatch) hidden() *tensor.Tensor {
	if b.valid != nil {
		b.syncVersion()
	}
	in := b.x
	for i := 0; i < len(b.m.layers)-1; i++ {
		out := b.acts[i]
		b.layerInto(i, out, in)
		addRowBiasReLU(out, b.m.layers[i].B.Data)
		if b.valid != nil {
			b.valid[i] = out.Cols
		}
		in = out
	}
	return in
}

// Forward computes the full B×InDim logits for the current X.
func (b *madeBatch) Forward() *tensor.Tensor {
	h := b.hidden()
	last := len(b.m.layers) - 1
	out := b.acts[last]
	b.layerInto(last, out, h)
	addRowBias(out, b.m.layers[last].B.Data)
	return out
}

// hiddenFor computes the hidden activations restricted to the unit
// prefixes column i's logits depend on; columns beyond a layer's prefix
// keep stale values that nothing downstream reads. The prefix activation
// cache narrows each layer further: units below valid[l] already hold the
// right values for the current X (this sweep only appended later input
// columns), so only the [valid[l], head) tail is recomputed — the MADE
// analog of transformer KV-caching.
func (b *madeBatch) hiddenFor(i int) *tensor.Tensor {
	if b.valid == nil {
		return b.hidden()
	}
	b.syncVersion()
	in := b.x
	for l := 0; l < len(b.m.layers)-1; l++ {
		lay := b.m.layers[l]
		out := b.acts[l]
		head := b.m.colHidden[i]
		if lo := b.valid[l]; lo < head {
			if l == 0 {
				// The input is nearly all zeros (one one-hot per sampled
				// column); the nonzero lists make the axpy form's cost
				// proportional to the few set inputs.
				b.ensureNZ(b.m.colInputs[i])
				tensor.MatMulNZSuffixHeadRangeInto(out, in, b.nzIdx, lay.cache.Get(), lay.cache.Spans(), lo, head)
				addRowBiasReLURange(out, lay.B.Data, lo, head)
			} else if l == len(b.m.layers)-2 && b.hValid == lo {
				// Writing the final hidden layer: fuse the nonzero-list
				// maintenance into the kernel so the output-block projection
				// never rescans these rows (the invalidation clamps keep
				// hValid equal to the layer's valid width on this path).
				tensor.MatMulPrefixReLURangeNZInto(out, in, b.wtFor(l), b.prefixes[l], lay.B.Data, lo, head, b.hNZ)
				b.hValid = head
			} else {
				tensor.MatMulPrefixReLURangeInto(out, in, b.wtFor(l), b.prefixes[l], lay.B.Data, lo, head)
			}
			b.valid[l] = head
		}
		in = out
	}
	return in
}

// ForwardCol computes only column i's B×colSizes[i] logit block: the
// output layer is sliced to that block and the hidden layers to the unit
// prefix the block depends on, skipping the rest of the (widest) matmul in
// the net.
func (b *madeBatch) ForwardCol(i int) *tensor.Tensor {
	h := b.hiddenFor(i)
	last := len(b.m.layers) - 1
	l := b.m.layers[last]
	out := b.colViews[i]
	off := b.m.offsets[i]
	bias := l.B.Data[off : off+out.Cols]
	if b.valid != nil {
		// Every logit in a block shares one dependency prefix (the last
		// hidden head), and suffix-monotone output spans start on block
		// boundaries, so those weight rows cover the block fully: the block
		// is an indexed axpy over the masked product directly. Entries past
		// the block's prefix (possible after out-of-order ForwardCol calls)
		// hit masked-off weight rows and contribute zero.
		b.ensureHNZ(b.m.colHidden[i])
		tensor.MatMulNZBlockBiasInto(out, h, b.hNZ, l.cache.Get(), bias, off)
		return out
	}
	tensor.MatMulMaskedSliceInto(out, h, l.cache.Get(), l.cache.Spans(), off)
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		for j, bv := range bias {
			row[j] += bv
		}
	}
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

// addRowBiasReLU adds the bias row to every row of t and applies ReLU.
func addRowBiasReLU(t *tensor.Tensor, bias []float64) {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)[:len(bias)]
		for j, bv := range bias {
			// Branchless: the sign of a pre-activation is close to a coin
			// flip, so a conditional here mispredicts constantly.
			row[j] = max(row[j]+bv, 0)
		}
	}
}

// addRowBiasReLURange is addRowBiasReLU restricted to columns [lo, head)
// of every row.
func addRowBiasReLURange(t *tensor.Tensor, bias []float64, lo, head int) {
	bias = bias[lo:head]
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)[lo:head]
		for j, bv := range bias {
			row[j] = max(row[j]+bv, 0)
		}
	}
}
