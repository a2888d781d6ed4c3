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
func (m *MADE) NewChain() Chain {
	return &madeChain{m: m, hidden: make([]*tensor.Node, len(m.layers)-1)}
}

// madeChain advances a progressive-sampling pass through a MADE one column
// per Next. With sorted degrees, the hidden units column i adds are a band
// of every hidden layer: [colHidden[i−1], colHidden[i]), the units of
// degree exactly i, which read the inputs of columns < i (layer 0) or the
// previous layer's prefix colHidden[i]. Step i writes the new sample into
// the input buffer, computes that band of each layer into the layer's
// buffer — reading the layer below in place — and projects output block i
// from the last layer's prefix. Every hidden unit is computed once per
// chain, and a column with no unit of its degree adds no band. Column 0
// depends on no input, so its block is the output bias.
type madeChain struct {
	m      *MADE
	g      *tensor.Graph
	rows   int
	col    int            // the column the next Next returns
	x      *tensor.Node   // rows×inDim buffer of the samples so far
	hidden []*tensor.Node // rows×width buffer per hidden layer
}

func (c *madeChain) Reset(g *tensor.Graph, rows int) {
	c.g, c.rows, c.col = g, rows, 0
	c.x = g.Buffer(rows, c.m.inDim)
	for l := range c.hidden {
		c.hidden[l] = g.Buffer(rows, c.m.layers[l].W.Cols)
	}
}

func (c *madeChain) Next(y *tensor.Node) *tensor.Node {
	m, g, i := c.m, c.g, c.col
	checkNext(m.colSizes, i, c.rows, y)
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

// Params returns all trainable tensors.
func (m *MADE) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
