package nn

import "sam/internal/tensor"

// madeBatch is MADE's BatchInference: per-hidden-layer B×width activation
// matrices driven by the span-aware masked kernels, so one column step of
// B lanes costs one restricted matmul per layer instead of B. It relies on
// the mask shape NewMADE always builds (and ar.Load rebuilds through it):
// every layer's spans are suffixes [start, n) with nondecreasing starts,
// so the units an input reaches, and the inputs a unit reads, are always
// a suffix and a prefix.
type madeBatch struct {
	m *MADE
	x *tensor.Tensor // B × inDim, 0/1
	// nz[l] lists the set x indices of lane l in ascending order. SetInput
	// is the only writer of x, so the list is complete by construction and
	// Reset clears exactly these entries. The input layer's kernel walks it
	// instead of scanning the mostly-zero input row.
	nz   [][]int
	acts []*tensor.Tensor // per hidden layer, B × width
	// colViews[i] is a B×colSizes[i] view over a shared buffer sized for
	// the widest column; ForwardCol writes into it so no per-call tensor
	// headers are allocated.
	colViews []*tensor.Tensor
	// wts[l] caches hidden layer l's masked weight product transposed
	// (refreshed lazily against W.Version()), feeding the prefix-dot
	// kernels; entry 0 is nil because the sparse one-hot input favors the
	// axpy form there, and the output layer keeps none because its block
	// projection runs the zero-compacted axpy over the masked product in
	// its native layout.
	wts    []*tensor.Tensor
	wtSeen []uint64
	// prefixes[l][j] is the input prefix feeding unit j of hidden layer l
	// (l ≥ 1) — the transpose of the suffix spans.
	prefixes [][]int

	// Prefix activation cache. ForwardCol(i) evaluates each hidden layer
	// only up to the unit prefix m.colHidden[i] that column i's logits
	// depend on. valid[l] is the width of acts[l] whose values are correct
	// for the current input: an input of column c reaches only the suffix
	// of each hidden layer of degree > c, so when ancestral sampling sets
	// one column per step the valid prefix survives from step to step and
	// a column step recomputes just [valid[l], head) instead of [0, head).
	// ForwardCol shrinks the widths to exclude what the inputs set since
	// the last ForwardCol reach, then grows them.
	valid []int
	// dirty is the lowest input set since the last ForwardCol (inDim when
	// none): suffix spans start no earlier for later inputs, so it alone
	// bounds what those inputs reach.
	dirty int
	// params and paramStamp version-track every trainable tensor: any
	// MarkDirty (an optimizer step) advances the summed version, dropping
	// the whole cache. Weight retransposition is handled per layer by
	// wtSeen; the stamp additionally covers biases.
	params     []*tensor.Tensor
	paramStamp uint64

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
	last := len(m.layers) - 1
	bi := &madeBatch{
		m:        m,
		x:        tensor.New(b, m.inDim),
		nz:       make([][]int, b),
		wts:      make([]*tensor.Tensor, last),
		wtSeen:   make([]uint64, last),
		prefixes: make([][]int, last),
		valid:    make([]int, last),
		dirty:    m.inDim,
		params:   m.Params(),
		// Force a version sync on first use.
		paramStamp: ^uint64(0),
		hNZ:        make([][]int, b),
	}
	n := len(m.colSizes)
	nzBuf := make([]int, b*n)
	for l := range bi.nz {
		// Sized for the sampling workload (one one-hot per column); denser
		// inputs grow a lane's list on first use.
		bi.nz[l] = nzBuf[l*n : l*n : (l+1)*n]
	}
	for l, lay := range m.layers[:last] {
		w := lay.W
		bi.acts = append(bi.acts, tensor.New(b, w.Cols))
		if l == 0 {
			continue
		}
		bi.wts[l] = tensor.New(w.Cols, w.Rows)
		pref := make([]int, w.Cols)
		for j := range pref {
			pref[j] = countStartsBelow(lay.cache.Spans(), w.Rows, j+1)
		}
		bi.prefixes[l] = pref
	}
	hw := m.layers[last].W.Rows
	hBuf := make([]int, b*hw)
	for l := range bi.hNZ {
		bi.hNZ[l] = hBuf[l*hw : l*hw : (l+1)*hw]
	}
	maxSize := 0
	for _, s := range m.colSizes {
		maxSize = max(maxSize, s)
	}
	colBuf := make([]float64, b*maxSize)
	for _, s := range m.colSizes {
		bi.colViews = append(bi.colViews, tensor.FromSlice(b, s, colBuf[:b*s]))
	}
	return bi
}

// Batch returns the lane count.
func (b *madeBatch) Batch() int { return b.x.Rows }

// Reset clears every set input and drops the activation cache.
func (b *madeBatch) Reset() {
	for l, lst := range b.nz {
		row := b.x.Row(l)
		for _, k := range lst {
			row[k] = 0
		}
		b.nz[l] = lst[:0]
	}
	clear(b.valid)
	b.dirty = b.m.inDim
	b.clampHNZ(0)
}

// SetInput sets x[lane][flat] = 1, inserts flat into the lane's sorted
// nonzero list and lowers the dirty mark the next ForwardCol invalidates
// from. Ancestral sampling sets inputs in ascending order, so the
// insertion is an append.
func (b *madeBatch) SetInput(lane, flat int) {
	row := b.x.Row(lane)
	if row[flat] != 0 {
		return
	}
	row[flat] = 1
	lst := b.nz[lane]
	k := len(lst)
	for k > 0 && lst[k-1] > flat {
		k--
	}
	lst = append(lst, flat)
	if k < len(lst)-1 {
		copy(lst[k+1:], lst[k:])
		lst[k] = flat
	}
	b.nz[lane] = lst
	b.dirty = min(b.dirty, flat)
}

// invalidateDirty shrinks the cached widths to exclude every hidden unit
// the inputs set since the last ForwardCol reach. Layer 0's stale boundary
// is the span start of the lowest such input; each deeper layer's is the
// span start of the shallower layer's first stale unit.
func (b *madeBatch) invalidateDirty() {
	if b.dirty == b.m.inDim {
		return
	}
	stale := b.m.layers[0].cache.Spans()[2*b.dirty]
	b.dirty = b.m.inDim
	b.valid[0] = min(b.valid[0], stale)
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

// syncVersion drops the activation cache when any trainable tensor has
// been mutated (summed tensor versions strictly increase on MarkDirty).
func (b *madeBatch) syncVersion() {
	var stamp uint64
	for _, p := range b.params {
		stamp += p.Version()
	}
	if stamp != b.paramStamp {
		clear(b.valid)
		b.clampHNZ(0)
		b.paramStamp = stamp
	}
}

// ensureHNZ extends every lane's final-hidden nonzero list to cover units
// [0, head); hiddenFor has already made that prefix valid, and the cache
// invariant keeps its values stable until the next invalidation clamp.
func (b *madeBatch) ensureHNZ(head int) {
	if b.hValid >= head {
		return
	}
	h := b.acts[len(b.acts)-1]
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
	if bound >= b.hValid {
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
// start is below bound (starts are nondecreasing for suffix spans).
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

// hiddenFor computes the hidden activations restricted to the unit
// prefixes column i's logits depend on; units beyond a layer's prefix
// keep stale values that nothing downstream reads. The prefix activation
// cache narrows each layer further: units below valid[l] already hold the
// right values for the current input, so only the [valid[l], head) tail
// is recomputed — the MADE analog of transformer KV-caching.
func (b *madeBatch) hiddenFor(i int) *tensor.Tensor {
	b.syncVersion()
	b.invalidateDirty()
	last := len(b.acts) - 1
	head := b.m.colHidden[i]
	in := b.x
	for l, out := range b.acts {
		lay := b.m.layers[l]
		if lo := b.valid[l]; lo < head {
			if l == 0 {
				// The input is nearly all zeros (one one-hot per sampled
				// column); the nonzero lists make the axpy form's cost
				// proportional to the few set inputs.
				tensor.MatMulNZSuffixHeadRangeInto(out, in, b.nz, lay.cache.Get(), lay.cache.Spans(), lo, head)
				addRowBiasReLURange(out, lay.B.Data, lo, head)
			} else if l == last && b.hValid == lo {
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
// prefix the block depends on. Every logit in a block shares one
// dependency prefix (the last hidden head), and the output spans start on
// block boundaries, so those weight rows cover the block fully: the block
// is an indexed axpy over the masked product directly. Listed entries past
// the block's prefix (possible after out-of-order ForwardCol calls) hit
// masked-off weight rows and contribute zero.
func (b *madeBatch) ForwardCol(i int) *tensor.Tensor {
	h := b.hiddenFor(i)
	l := b.m.layers[len(b.m.layers)-1]
	out := b.colViews[i]
	off := b.m.offsets[i]
	b.ensureHNZ(b.m.colHidden[i])
	tensor.MatMulNZBlockBiasInto(out, h, b.hNZ, l.cache.Get(), l.B.Data[off:off+out.Cols], off)
	return out
}

// addRowBiasReLURange adds bias[lo:head] to columns [lo, head) of every
// row of t and applies ReLU there.
func addRowBiasReLURange(t *tensor.Tensor, bias []float64, lo, head int) {
	bias = bias[lo:head]
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)[lo:head]
		for j, bv := range bias {
			// Branchless: the sign of a pre-activation is close to a coin
			// flip, so a conditional here mispredicts constantly.
			row[j] = max(row[j]+bv, 0)
		}
	}
}
