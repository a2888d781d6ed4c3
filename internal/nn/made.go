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
	// of degree ≤ i. Batched sampling restricts column i's pass to this
	// prefix; the training chain computes the band
	// colHidden[i−1]..colHidden[i] at step i.
	colHidden []int
}

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
	for i := range colSizes {
		h := 0
		for h < hidden && hidDeg[h] <= i {
			h++
		}
		m.colHidden[i] = h
	}
	return m
}

// NumCols returns the number of modeled columns.
func (m *MADE) NumCols() int { return len(m.colSizes) }

// Offsets returns each column block's start offset.
func (m *MADE) Offsets() []int { return m.offsets }

// OutputBias returns the bias of the output layer (1×inDim), exposed so
// callers can install informative priors on specific column blocks before
// training.
func (m *MADE) OutputBias() *tensor.Tensor { return m.layers[len(m.layers)-1].B }

// NewChain returns an incremental progressive-sampling chain over m.
func (m *MADE) NewChain() *Chain {
	return &Chain{m: m, hidden: make([]*tensor.Node, len(m.layers)-1)}
}

// Chain is one differentiable progressive-sampling pass through a MADE on
// the autodiff graph, advanced one column at a time: after Reset, the i-th
// call to Next receives the sample of column i−1 and returns column i's
// logits. With sorted degrees, the hidden units column i adds are a band
// of every hidden layer: [colHidden[i−1], colHidden[i]), the units of
// degree exactly i, which read the inputs of columns < i (layer 0) or the
// previous layer's prefix colHidden[i]. Step i writes the new sample into
// the input buffer, computes that band of each layer into the layer's
// buffer — reading the layer below in place — and projects output block i
// from the last layer's prefix. Every hidden unit is computed once per
// chain, so a whole chain costs about one forward pass instead of one pass
// per column, and a column with no unit of its degree adds no band.
// Column 0 depends on no input, so its block is the output bias. A Chain
// holds per-layer scratch sized at construction; Reset reuses it, so warm
// training steps allocate nothing. Not safe for concurrent use.
type Chain struct {
	m      *MADE
	g      *tensor.Graph
	rows   int
	col    int            // the column the next Next returns
	x      *tensor.Node   // rows×inDim buffer of the samples so far
	hidden []*tensor.Node // rows×width buffer per hidden layer
}

// Reset starts a new pass of rows batch rows on g. The nodes of an earlier
// pass stay valid on g.
func (c *Chain) Reset(g *tensor.Graph, rows int) {
	c.g, c.rows, c.col = g, rows, 0
	c.x = g.Buffer(rows, c.m.inDim)
	for l := range c.hidden {
		c.hidden[l] = g.Buffer(rows, c.m.layers[l].W.Cols)
	}
}

// Next feeds y, the (relaxed) one-hot sample of the previous column — rows
// × column i−1's domain size, nil at column 0 — and returns column i's
// logit block, rows × column i's domain size. Its value and every gradient
// equal those of column i's block of one full-width pass of the MADE over
// the samples so far padded with zeros; the tests build that pass from
// plain loops. Next panics on a y of the wrong shape and past the last
// column.
func (c *Chain) Next(y *tensor.Node) *tensor.Node {
	m, g, i := c.m, c.g, c.col
	c.check(y)
	c.col++
	lo, hi := 0, m.colHidden[i]
	if i > 0 {
		g.CopyColsInto(c.x, y, m.offsets[i-1])
		lo = m.colHidden[i-1]
	}
	last := len(m.layers) - 1
	off := m.offsets[i]
	if hi == 0 {
		zero := g.Const(g.NewTensor(c.rows, m.colSizes[i]))
		return g.AddRowAt(zero, g.Param(m.layers[last].B), off)
	}
	if lo < hi {
		x, rowEnd := c.x, off
		for l, h := range c.hidden {
			ml := m.layers[l]
			g.MaskedLinearReLUInto(h, x, g.Param(ml.W), g.Param(ml.B), ml.cache, rowEnd, lo, hi)
			x, rowEnd = h, hi
		}
	}
	return m.layers[last].forwardWindow(g, c.hidden[last-1], hi, off, off+m.colSizes[i])
}

// check panics unless y is a valid input for the chain's next step.
func (c *Chain) check(y *tensor.Node) {
	sizes, col := c.m.colSizes, c.col
	switch {
	case col >= len(sizes):
		panic(fmt.Sprintf("nn: Chain.Next past the last of %d columns", len(sizes)))
	case col == 0 && y != nil:
		panic("nn: Chain.Next at column 0 takes no sample")
	case col > 0 && y == nil:
		panic(fmt.Sprintf("nn: Chain.Next at column %d needs the sample of column %d", col, col-1))
	case col > 0 && (y.Val.Rows != c.rows || y.Val.Cols != sizes[col-1]):
		panic(fmt.Sprintf("nn: Chain.Next at column %d wants a %d×%d sample, got %v", col, c.rows, sizes[col-1], y.Val))
	}
}

// Params returns all trainable tensors.
func (m *MADE) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count.
func (m *MADE) NumParams() int {
	var n int
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}
