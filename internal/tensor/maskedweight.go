package tensor

import (
	"sync"
	"sync/atomic"
)

// MaskedWeight caches the elementwise product W∘Mask of a trainable weight
// matrix and a fixed 0/1 mask. MADE-style masked layers need the product on
// every forward pass, but W only changes at optimizer steps, so the cache
// turns a per-forward elementwise multiply (and, previously, a per-forward
// allocation) into a dirty-bit check.
//
// Invalidation is driven by W's mutation counter: writers must call
// W.MarkDirty() after updating the weights in place (nn.Adam does). Get is
// safe for concurrent readers; the recompute that follows an invalidation
// is serialized by a mutex, and the version is published with
// release/acquire semantics so readers never observe a half-written
// product. Mutating W concurrently with Get is not supported — the training
// loop steps the optimizer only while no forward passes are in flight.
type MaskedWeight struct {
	w, mask *Tensor
	cached  *Tensor
	spans   []int // per row r: nonzero column range [spans[2r], spans[2r+1])
	mu      sync.Mutex
	seen    atomic.Uint64 // W.Version()+1 of the cached product; 0 = invalid
}

// NewMaskedWeight builds a cache for w∘mask. Both tensors are retained by
// reference; the mask must not be mutated afterwards. The per-row nonzero
// column spans of the mask are precomputed so the masked kernels can skip
// masked-out columns entirely — for MADE's sorted-degree masks the nonzeros
// of every row are one contiguous suffix, halving the matmul work on
// average. Masks with interior zeros stay correct (the cached product is
// zero there); spans only bound the nonzero extent.
func NewMaskedWeight(w, mask *Tensor) *MaskedWeight {
	if !w.SameShape(mask) {
		panic("tensor: MaskedWeight shape mismatch")
	}
	c := &MaskedWeight{w: w, mask: mask, cached: New(w.Rows, w.Cols)}
	c.spans = make([]int, 2*mask.Rows)
	for r := 0; r < mask.Rows; r++ {
		row := mask.Row(r)
		s, e := 0, len(row)
		for s < e && row[s] == 0 {
			s++
		}
		for e > s && row[e-1] == 0 {
			e--
		}
		c.spans[2*r], c.spans[2*r+1] = s, e
	}
	return c
}

// Spans returns the per-row nonzero column ranges in the flat
// [start0, end0, start1, end1, ...] layout the masked matmul kernels
// consume. The slice is owned by the cache and must not be mutated.
func (c *MaskedWeight) Spans() []int { return c.spans }

// Weight returns the cached product's weight operand.
func (c *MaskedWeight) Weight() *Tensor { return c.w }

// Mask returns the fixed mask operand.
func (c *MaskedWeight) Mask() *Tensor { return c.mask }

// Get returns W∘Mask, recomputing it only if W changed since the last call.
// The returned tensor is owned by the cache and must not be mutated; it is
// valid until the next optimizer step.
func (c *MaskedWeight) Get() *Tensor {
	v := c.w.Version() + 1
	if c.seen.Load() == v {
		return c.cached
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen.Load() != v {
		wd := c.w.Data
		md := c.mask.Data[:len(wd)]
		cd := c.cached.Data[:len(wd)]
		for i, wv := range wd {
			cd[i] = wv * md[i]
		}
		c.seen.Store(v)
	}
	return c.cached
}
