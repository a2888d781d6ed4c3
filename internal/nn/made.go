package nn

import (
	"fmt"
	"math/rand"

	"sam/internal/tensor"
)

// MADE is a Masked Autoencoder for Distribution Estimation (Germain et al.,
// ICML'15) over grouped categorical inputs: column i of the modeled relation
// occupies a contiguous block of colSizes[i] one-hot input units and the
// same block of output logits. The masks guarantee that the logits for
// column i depend only on the one-hot inputs of columns < i, so the network
// parameterizes the autoregressive factorization
// P(x) = Π_i P(x_i | x_<i) used throughout the SAM paper.
type MADE struct {
	colSizes []int // domain size per column, in autoregressive order
	offsets  []int // start offset of each column block
	inDim    int   // Σ colSizes

	layers []*MaskedLinear // alternating affine layers; ReLU between

	// colHidden[i] is the number of hidden units (a prefix of every hidden
	// layer, degrees being sorted) that column i's logits depend on: those
	// of degree ≤ i. colInputs[i] is the input prefix those units read,
	// the one-hots of columns below the largest such degree. Both the
	// training ForwardCol and batched sampling restrict column i's pass to
	// these prefixes.
	colHidden []int
	colInputs []int
}

var _ Backbone = (*MADE)(nil)

// NewMADE constructs a MADE with numHidden hidden layers of width hidden.
// Hidden-unit degrees are assigned round-robin over 1..n−1 (or 1 when the
// model has a single column) which gives every conditional access to all of
// its predecessors.
func NewMADE(rng *rand.Rand, colSizes []int, hidden, numHidden int) *MADE {
	n := len(colSizes)
	if n == 0 {
		panic("nn: MADE needs at least one column")
	}
	if hidden <= 0 || numHidden <= 0 {
		panic("nn: MADE needs positive hidden sizes")
	}
	m := &MADE{colSizes: append([]int(nil), colSizes...)}
	m.offsets = make([]int, n)
	for i, s := range colSizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: column %d has nonpositive domain %d", i, s))
		}
		m.offsets[i] = m.inDim
		m.inDim += s
	}

	// Degrees: input unit of column i has degree i+1; output unit of column
	// i has degree i+1; hidden degrees cycle 1..max(1, n−1).
	inDeg := make([]int, m.inDim)
	for i, off := range m.offsets {
		for j := 0; j < colSizes[i]; j++ {
			inDeg[off+j] = i + 1
		}
	}
	maxHid := n - 1
	if maxHid < 1 {
		maxHid = 1
	}
	// Hidden degrees are assigned in sorted order (rather than round-robin)
	// so every mask row's nonzeros form one contiguous block: the degree
	// multiset — and hence the model class — is identical up to a
	// permutation of hidden units, but contiguity lets the masked-matmul
	// kernels skip the masked-out half of each row entirely.
	hidDeg := make([]int, hidden)
	for j := range hidDeg {
		hidDeg[j] = 1 + j*maxHid/hidden
	}

	prevDeg := inDeg
	prevDim := m.inDim
	for layer := 0; layer < numHidden; layer++ {
		mask := tensor.New(prevDim, hidden)
		for r := 0; r < prevDim; r++ {
			for c := 0; c < hidden; c++ {
				if hidDeg[c] >= prevDeg[r] {
					mask.Set(r, c, 1)
				}
			}
		}
		m.layers = append(m.layers, NewMaskedLinear(rng, prevDim, hidden, mask))
		prevDeg = hidDeg
		prevDim = hidden
	}

	// Output layer: strict inequality so column i never sees itself.
	outMask := tensor.New(prevDim, m.inDim)
	for r := 0; r < prevDim; r++ {
		for i, off := range m.offsets {
			if i+1 > prevDeg[r] {
				for j := 0; j < colSizes[i]; j++ {
					outMask.Set(r, off+j, 1)
				}
			}
		}
	}
	m.layers = append(m.layers, NewMaskedLinear(rng, prevDim, m.inDim, outMask))

	m.colHidden = make([]int, n)
	m.colInputs = make([]int, n)
	for i := range colSizes {
		h := 0
		for h < hidden && hidDeg[h] <= i {
			h++
		}
		m.colHidden[i] = h
		if h > 0 {
			m.colInputs[i] = m.offsets[hidDeg[h-1]]
		}
	}
	return m
}

// InDim returns the total one-hot input width.
func (m *MADE) InDim() int { return m.inDim }

// NumCols returns the number of modeled columns.
func (m *MADE) NumCols() int { return len(m.colSizes) }

// ColSizes returns the per-column domain sizes.
func (m *MADE) ColSizes() []int { return m.colSizes }

// Offsets returns each column block's start offset.
func (m *MADE) Offsets() []int { return m.offsets }

// OutputBias returns the bias of the output layer (1×InDim), exposed so
// callers can install informative priors on specific column blocks before
// training.
func (m *MADE) OutputBias() *tensor.Tensor { return m.layers[len(m.layers)-1].B }

// Forward runs the network on the autodiff graph; x is batch×InDim of
// (relaxed) one-hots, the result is batch×InDim of logits for every column
// block.
func (m *MADE) Forward(g *tensor.Graph, x *tensor.Node) *tensor.Node {
	h := x
	for i, l := range m.layers {
		h = l.Forward(g, h)
		if i != len(m.layers)-1 {
			h = g.ReLU(h)
		}
	}
	return h
}

// ForwardCol computes column i's logit block on the autodiff graph from
// x = the inputs of columns < i (batch×Offsets()[i]). Sorted degrees make
// everything the block depends on a window of each layer: the input
// prefix colInputs[i], the hidden-unit prefix colHidden[i] in every hidden
// layer, and output block i. Only those windows are computed, forward and
// backward, instead of the full network followed by a slice. Column 0
// depends on no input, so its block is the output bias.
func (m *MADE) ForwardCol(g *tensor.Graph, x *tensor.Node, i int) *tensor.Node {
	if x.Val.Cols != m.offsets[i] {
		panic(fmt.Sprintf("nn: MADE.ForwardCol(%d) wants %d input columns, got %d", i, m.offsets[i], x.Val.Cols))
	}
	last := len(m.layers) - 1
	off, h := m.offsets[i], m.colHidden[i]
	if h == 0 {
		zero := g.Const(g.NewTensor(x.Val.Rows, m.colSizes[i]))
		return g.AddRowAt(zero, g.Param(m.layers[last].B), off)
	}
	rows := m.colInputs[i]
	for _, l := range m.layers[:last] {
		x = g.ReLU(l.forwardWindow(g, x, rows, 0, h))
		rows = h
	}
	return m.layers[last].forwardWindow(g, x, h, off, off+m.colSizes[i])
}

// Params returns all trainable tensors.
func (m *MADE) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
