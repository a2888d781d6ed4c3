package nn

import "sam/internal/tensor"

// BatchInference is the allocation-free no-autodiff forward pass of a MADE
// behind ancestral sampling and progressive-sampling estimation, and the
// only one: a single tuple is batch 1. B tuples advance one column per
// step, so each layer becomes one (B×H) GEMM instead of B GEMVs, driven by
// the prefix-restricted masked kernels that amortize every weight load
// over the whole batch. Not safe for concurrent use; create one per
// goroutine. Lanes beyond the caller's live count produce garbage (finite)
// outputs — callers simply ignore those rows.
//
// The engine owns its input, B rows of 0/1 entries that start at zero, and
// every cache derived from it: ForwardCol first drops exactly the cached
// activations that the inputs set since the previous ForwardCol reach, so
// it always computes the logits of the inputs set since the last Reset.
// Weight updates are tracked through tensor versions and need no
// notification beyond the usual MarkDirty.
//
// It relies on the mask shape NewMADE always builds (and ar.Load rebuilds
// through it): every layer's spans are suffixes [start, n) with
// nondecreasing starts, so the units an input reaches, and the inputs a
// unit reads, are always a suffix and a prefix.
type BatchInference struct {
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
	// prefixes[l][j] is the input prefix feeding unit j of hidden layer l
	// (l ≥ 1) — the transpose of the suffix spans — and outPrefix[o] that
	// of output unit o: colHidden[i] for every logit of column i.
	prefixes  [][]int
	outPrefix []int

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
	// the whole cache.
	params     []*tensor.Tensor
	paramStamp uint64
}

// NewBatchInference allocates batched scratch sized for m and b lanes.
func (m *MADE) NewBatchInference(b int) *BatchInference {
	if b < 1 {
		panic("nn: batch inference needs at least one lane")
	}
	last := len(m.layers) - 1
	bi := &BatchInference{
		m:         m,
		x:         tensor.New(b, m.inDim),
		nz:        make([][]int, b),
		prefixes:  make([][]int, last),
		outPrefix: make([]int, m.inDim),
		valid:     make([]int, last),
		dirty:     m.inDim,
		params:    m.Params(),
		// Force a version sync on first use.
		paramStamp: ^uint64(0),
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
		pref := make([]int, w.Cols)
		for j := range pref {
			pref[j] = countStartsBelow(lay.cache.Spans(), w.Rows, j+1)
		}
		bi.prefixes[l] = pref
	}
	maxSize := 0
	for i, s := range m.colSizes {
		maxSize = max(maxSize, s)
		for o := range s {
			bi.outPrefix[m.offsets[i]+o] = m.colHidden[i]
		}
	}
	colBuf := make([]float64, b*maxSize)
	for _, s := range m.colSizes {
		bi.colViews = append(bi.colViews, tensor.FromSlice(b, s, colBuf[:b*s]))
	}
	return bi
}

// Batch returns the lane count B fixed at construction.
func (b *BatchInference) Batch() int { return b.x.Rows }

// Reset zeroes every input and drops all cached activations.
func (b *BatchInference) Reset() {
	for l, lst := range b.nz {
		row := b.x.Row(l)
		for _, k := range lst {
			row[k] = 0
		}
		b.nz[l] = lst[:0]
	}
	clear(b.valid)
	b.dirty = b.m.inDim
}

// SetInput sets input flat of lane to 1: x[lane][flat] = 1, flat joins
// the lane's sorted nonzero list, and the dirty mark the next ForwardCol
// invalidates from drops to flat. Calls may come in any order and between
// any ForwardCol calls; repeating one is a no-op. Ancestral sampling sets
// inputs in ascending order, so the insertion is an append.
func (b *BatchInference) SetInput(lane, flat int) {
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
func (b *BatchInference) invalidateDirty() {
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
}

// syncVersion drops the activation cache when any trainable tensor has
// been mutated (summed tensor versions strictly increase on MarkDirty).
func (b *BatchInference) syncVersion() {
	var stamp uint64
	for _, p := range b.params {
		stamp += p.Version()
	}
	if stamp != b.paramStamp {
		clear(b.valid)
		b.paramStamp = stamp
	}
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
// is recomputed.
func (b *BatchInference) hiddenFor(i int) *tensor.Tensor {
	b.syncVersion()
	b.invalidateDirty()
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
			} else {
				tensor.MatMulPrefixInto(out, in, lay.cache.Get(), 0, b.prefixes[l], lo, head)
			}
			addRowBiasReLURange(out, lay.B.Data, lo, head)
			b.valid[l] = head
		}
		in = out
	}
	return in
}

// ForwardCol computes only column i's B×colSizes[i] logit block, which is
// all ancestral sampling needs at step i: the output layer is sliced to
// that block and the hidden layers to the unit prefix the block depends
// on. Every logit in a block shares one dependency prefix (the last hidden
// head), so the block is one prefix matmul over the masked product in its
// native layout. Columns may be computed in any order. The result is owned
// by the engine and valid until the next ForwardCol.
func (b *BatchInference) ForwardCol(i int) *tensor.Tensor {
	h := b.hiddenFor(i)
	l := b.m.layers[len(b.m.layers)-1]
	out := b.colViews[i]
	off := b.m.offsets[i]
	tensor.MatMulPrefixInto(out, h, l.cache.Get(), off, b.outPrefix[off:off+out.Cols], 0, out.Cols)
	addRowBias(out, l.B.Data[off:off+out.Cols])
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

// addRowBias adds the 1×cols bias row to every row of t.
func addRowBias(t *tensor.Tensor, bias []float64) {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)[:len(bias)]
		for j, bv := range bias {
			row[j] += bv
		}
	}
}
