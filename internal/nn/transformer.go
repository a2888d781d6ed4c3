package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sam/internal/tensor"
)

// Transformer is a causal (decoder-only) transformer over grouped
// categorical columns — the paper's alternative autoregressive backbone
// (§4.1 instantiates SAM "by any learning-based AR architecture (e.g.,
// MADE and Transformer)"). Column values become a token sequence shifted
// right behind a start-of-sequence token; position i's output produces the
// logits of column i, and the causal attention mask guarantees it depends
// only on columns < i.
type Transformer struct {
	colSizes []int
	offsets  []int
	inDim    int

	dModel int
	heads  int
	dk     int
	ff     int

	wEmb *tensor.Tensor // inDim × dModel (per-value embeddings)
	sos  *tensor.Tensor // 1 × dModel
	pos  *tensor.Tensor // numCols × dModel

	layers []*transformerLayer

	lnFGain, lnFBias *tensor.Tensor
	wOut             *tensor.Tensor // dModel × inDim
	bOut             *tensor.Tensor // 1 × inDim
}

var _ Backbone = (*Transformer)(nil)

type transformerLayer struct {
	ln1Gain, ln1Bias *tensor.Tensor
	wq, wk, wv, wo   *tensor.Tensor // dModel × dModel
	ln2Gain, ln2Bias *tensor.Tensor
	w1               *tensor.Tensor // dModel × ff
	b1               *tensor.Tensor // 1 × ff
	w2               *tensor.Tensor // ff × dModel
	b2               *tensor.Tensor // 1 × dModel
}

// NewTransformer constructs a pre-norm causal transformer with the given
// model width, head count, feed-forward width and layer count.
func NewTransformer(rng *rand.Rand, colSizes []int, dModel, heads, ffDim, numLayers int) *Transformer {
	n := len(colSizes)
	if n == 0 {
		panic("nn: Transformer needs at least one column")
	}
	if dModel <= 0 || heads <= 0 || dModel%heads != 0 || ffDim <= 0 || numLayers <= 0 {
		panic(fmt.Sprintf("nn: bad transformer config d=%d h=%d ff=%d L=%d", dModel, heads, ffDim, numLayers))
	}
	t := &Transformer{
		colSizes: append([]int(nil), colSizes...),
		dModel:   dModel,
		heads:    heads,
		dk:       dModel / heads,
		ff:       ffDim,
	}
	t.offsets = make([]int, n)
	for i, s := range colSizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: column %d has nonpositive domain %d", i, s))
		}
		t.offsets[i] = t.inDim
		t.inDim += s
	}

	newT := func(r, c int, std float64) *tensor.Tensor {
		m := tensor.New(r, c)
		m.Randn(rng, std)
		return m
	}
	ones := func(c int) *tensor.Tensor {
		m := tensor.New(1, c)
		m.Fill(1)
		return m
	}
	std := 1 / math.Sqrt(float64(dModel))
	t.wEmb = newT(t.inDim, dModel, std)
	t.sos = newT(1, dModel, std)
	t.pos = newT(n, dModel, std)
	for l := 0; l < numLayers; l++ {
		t.layers = append(t.layers, &transformerLayer{
			ln1Gain: ones(dModel), ln1Bias: tensor.New(1, dModel),
			wq: newT(dModel, dModel, std), wk: newT(dModel, dModel, std),
			wv: newT(dModel, dModel, std), wo: newT(dModel, dModel, std),
			ln2Gain: ones(dModel), ln2Bias: tensor.New(1, dModel),
			w1: newT(dModel, ffDim, std), b1: tensor.New(1, ffDim),
			w2: newT(ffDim, dModel, 1/math.Sqrt(float64(ffDim))), b2: tensor.New(1, dModel),
		})
	}
	t.lnFGain = ones(dModel)
	t.lnFBias = tensor.New(1, dModel)
	t.wOut = newT(dModel, t.inDim, std)
	t.bOut = tensor.New(1, t.inDim)
	return t
}

// NumCols returns the number of modeled columns.
func (t *Transformer) NumCols() int { return len(t.colSizes) }

// Offsets returns each column block's start offset.
func (t *Transformer) Offsets() []int { return t.offsets }

// OutputBias returns the output projection bias (1×inDim).
func (t *Transformer) OutputBias() *tensor.Tensor { return t.bOut }

// Params returns all trainable tensors.
func (t *Transformer) Params() []*tensor.Tensor {
	ps := []*tensor.Tensor{t.wEmb, t.sos, t.pos}
	for _, l := range t.layers {
		ps = append(ps,
			l.ln1Gain, l.ln1Bias, l.wq, l.wk, l.wv, l.wo,
			l.ln2Gain, l.ln2Bias, l.w1, l.b1, l.w2, l.b2)
	}
	ps = append(ps, t.lnFGain, t.lnFBias, t.wOut, t.bOut)
	return ps
}

// NewChain returns an incremental progressive-sampling chain over t.
func (t *Transformer) NewChain() Chain {
	c := &transformerChain{
		t:    t,
		keys: make([][]*tensor.Node, len(t.layers)),
		vals: make([][]*tensor.Node, len(t.layers)),
	}
	for l := range t.layers {
		c.keys[l] = make([]*tensor.Node, len(t.colSizes))
		c.vals[l] = make([]*tensor.Node, len(t.colSizes))
	}
	return c
}

// transformerChain advances a progressive-sampling pass through the
// transformer one token per Next, every batch row a sequence of the same
// graph. Step i embeds only token i (start-of-sequence, or the sample of
// column i−1, plus position i) and runs it through every block as
// rows×d GEMMs; its attention reads the keys and values that steps 0..i
// left on the tape, which is all the causal mask lets position i see.
// The final projection computes column i's logit block alone.
type transformerChain struct {
	t          *Transformer
	g          *tensor.Graph
	rows       int
	col        int              // the column the next Next returns
	keys, vals [][]*tensor.Node // [layer][position] projections so far
}

func (c *transformerChain) Reset(g *tensor.Graph, rows int) {
	c.g, c.rows, c.col = g, rows, 0
}

func (c *transformerChain) Next(y *tensor.Node) *tensor.Node {
	t, g, i := c.t, c.g, c.col
	checkNext(t.colSizes, i, c.rows, y)
	c.col++
	var h *tensor.Node
	if i == 0 {
		h = g.AddRow(g.Const(g.NewTensor(c.rows, t.dModel)), g.Param(t.sos))
	} else {
		h = g.Embed(y, g.SliceRows(g.Param(t.wEmb), t.offsets[i-1], t.colSizes[i-1]))
	}
	h = g.AddRow(h, g.SliceRows(g.Param(t.pos), i, 1))

	scale := 1 / math.Sqrt(float64(t.dk))
	for l, tl := range t.layers {
		a := g.LayerNorm(h, g.Param(tl.ln1Gain), g.Param(tl.ln1Bias), 1e-5)
		q := g.MatMul(a, g.Param(tl.wq))
		c.keys[l][i] = g.MatMul(a, g.Param(tl.wk))
		c.vals[l][i] = g.MatMul(a, g.Param(tl.wv))
		ctx := g.AttendStep(q, c.keys[l][:i+1], c.vals[l][:i+1], t.heads, scale)
		h = g.Add(h, g.MatMul(ctx, g.Param(tl.wo)))
		h = g.Add(h, tl.feedForward(g, h))
	}
	h = g.LayerNorm(h, g.Param(t.lnFGain), g.Param(t.lnFBias), 1e-5)
	off, size := t.offsets[i], t.colSizes[i]
	return g.AddRowAt(g.MatMul(h, g.SliceCols(g.Param(t.wOut), off, size)), g.Param(t.bOut), off)
}

// feedForward is a block's pre-norm feed-forward branch on h.
func (l *transformerLayer) feedForward(g *tensor.Graph, h *tensor.Node) *tensor.Node {
	f := g.LayerNorm(h, g.Param(l.ln2Gain), g.Param(l.ln2Bias), 1e-5)
	f = g.ReLU(g.AddRow(g.MatMul(f, g.Param(l.w1)), g.Param(l.b1)))
	return g.AddRow(g.MatMul(f, g.Param(l.w2)), g.Param(l.b2))
}
