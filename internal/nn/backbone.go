package nn

import (
	"fmt"

	"sam/internal/tensor"
)

// Backbone is an autoregressive network over grouped categorical columns:
// column i occupies a contiguous block of one-hot input units and the same
// block of output logits, and the logits of column i depend only on the
// inputs of columns < i. MADE and Transformer both implement it; the SAM
// model is architecture-agnostic (§4.1: "SAM can be instantiated by any
// learning-based AR architecture").
type Backbone interface {
	// NumCols is the number of modeled columns.
	NumCols() int
	// Offsets returns each column block's start offset (not to be mutated).
	Offsets() []int
	// NewChain allocates a reusable progressive-sampling chain over the
	// backbone (one per training worker; see Chain).
	NewChain() Chain
	// NewBatchInference allocates scratch for a b-lane batched forward
	// pass (ancestral sampling and estimation; b = 1 for one tuple).
	NewBatchInference(b int) BatchInference
	// Params returns all trainable tensors.
	Params() []*tensor.Tensor
	// OutputBias returns the output layer's bias, one entry per logit
	// (1×Σ column domain sizes), used to install priors on specific column
	// blocks.
	OutputBias() *tensor.Tensor
}

// Chain is one differentiable progressive-sampling pass on the autodiff
// graph, advanced one column at a time: after Reset, the i-th call to Next
// receives the sample of column i−1 and returns column i's logits. Each
// step computes only what column i adds to the computation — MADE the
// hidden units of degree i, the transformer one more token — and reads
// everything earlier steps computed in place on the tape, so a whole chain
// costs about one forward pass instead of one pass per column. A Chain
// holds per-column scratch sized at construction; Reset reuses it, so
// warm training steps allocate nothing. Not safe for concurrent use.
type Chain interface {
	// Reset starts a new pass of rows batch rows on g. The nodes of an
	// earlier pass stay valid on g.
	Reset(g *tensor.Graph, rows int)
	// Next feeds y, the (relaxed) one-hot sample of the previous column —
	// rows × column i−1's domain size, nil at column 0 — and returns
	// column i's logit block, rows × column i's domain size. Its value and
	// every gradient equal those of column i's block of one full-width
	// pass of the backbone over the samples so far padded with zeros; the
	// tests build that pass from generic ops (MADE) or plain loops
	// (transformer). Next panics on a y of the wrong shape and past the
	// last column.
	Next(y *tensor.Node) *tensor.Node
}

// checkNext panics unless y is a valid input for step col of a chain of
// rows rows over a backbone with the given column sizes.
func checkNext(colSizes []int, col, rows int, y *tensor.Node) {
	switch {
	case col >= len(colSizes):
		panic(fmt.Sprintf("nn: Chain.Next past the last of %d columns", len(colSizes)))
	case col == 0 && y != nil:
		panic("nn: Chain.Next at column 0 takes no sample")
	case col > 0 && y == nil:
		panic(fmt.Sprintf("nn: Chain.Next at column %d needs the sample of column %d", col, col-1))
	case col > 0 && (y.Val.Rows != rows || y.Val.Cols != colSizes[col-1]):
		panic(fmt.Sprintf("nn: Chain.Next at column %d wants a %d×%d sample, got %v", col, rows, colSizes[col-1], y.Val))
	}
}

// BatchInference is the allocation-free no-autodiff forward pass behind
// ancestral sampling and progressive-sampling estimation, and the only
// one: a single tuple is batch 1. B tuples advance one column per step, so
// each layer becomes one (B×H) GEMM instead of B GEMVs and the tiled
// kernels amortize every weight load over the whole batch. Not safe for
// concurrent use; create one per goroutine. Lanes beyond the caller's live
// count produce garbage (finite) outputs — callers simply ignore those
// rows.
//
// The engine owns its input, B rows of 0/1 entries that start at zero, and
// every cache derived from it: ForwardCol first drops exactly the cached
// activations that the inputs set since the previous ForwardCol reach, so
// it always computes the logits of the inputs set since the last Reset. Weight updates are tracked
// through tensor versions and need no notification beyond the usual
// MarkDirty.
type BatchInference interface {
	// Batch returns the lane count B fixed at construction.
	Batch() int
	// Reset zeroes every input and drops all cached activations.
	Reset()
	// SetInput sets input flat of lane to 1. Calls may come in any order
	// and between any ForwardCol calls; repeating one is a no-op.
	SetInput(lane, flat int)
	// ForwardCol computes only column i's logit block — a B×ColSizes[i]
	// matrix — which is all ancestral sampling needs at step i. Columns may
	// be computed in any order. The result is owned by the engine and
	// valid until the next ForwardCol.
	ForwardCol(i int) *tensor.Tensor
}

// NumParams returns the total scalar parameter count of a backbone.
func NumParams(b Backbone) int {
	var n int
	for _, p := range b.Params() {
		n += len(p.Data)
	}
	return n
}
