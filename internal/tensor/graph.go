package tensor

// opKind tags a node with the operation that produced it; Backward
// dispatches on it instead of per-node closures, which keeps the tape free
// of per-step heap allocations (closures and their capture records) once
// the graph's buffer pool is warm.
type opKind uint8

const (
	opLeaf opKind = iota
	opMatMul
	opEmbed
	opMaskedMatMul
	opAddRow
	opAdd
	opSub
	opMulElem
	opReLU
	opScale
	opLog
	opSquare
	opMean
	opDot
	opReciprocal
	opSliceCols
	opSliceRows
	opRangeProb
	opSTGumbel
	opLayerNorm
	opCopyCols
	opMaskedBand
	opAttendStep
)

// Node is a vertex in the computation graph: a value tensor plus, when
// gradients are required, an accumulated gradient of the same shape and the
// operands needed to propagate into its parents.
type Node struct {
	Val          *Tensor
	Grad         *Tensor
	requiresGrad bool

	op         opKind
	a, b, c    *Node   // operands (op-specific; unused entries nil)
	parts      []*Node // AttendStep's keys, then its values
	aux1       *Tensor // op-specific saved tensor (mask, softmax, x̂, ...)
	aux2       *Tensor // second saved tensor (masked weights, 1/σ rows, ...)
	mwc        *MaskedWeight
	auxF       []float64
	f1         float64
	i1, i2, i3 int
}

// Graph is a gradient tape with a per-tape buffer pool. Operations append
// nodes in creation order; Backward walks the tape in reverse. A Graph is
// single-use per forward pass and not safe for concurrent use; training
// code builds one graph per goroutine and calls Reset between steps so
// output, gradient, and scratch buffers are recycled instead of churning
// the garbage collector.
type Graph struct {
	nodes  []*Node
	params map[*Tensor]*Node

	free       map[int][]*Tensor // released buffers keyed by element count
	owned      []*Tensor         // pool-allocated tensors live on this tape
	spareNodes []*Node           // recycled Node structs
	partsArena []*Node           // backing storage for Node.parts slices

	// The gradients' transposed operand and product, grown to the largest
	// call and reused (transpose, addProduct, maskedWindowBackward).
	trans, prod *Tensor
}

// NewGraph returns an empty tape.
func NewGraph() *Graph { return &Graph{} }

// Reset releases every buffer and node allocated on this tape back to its
// pool and truncates the tape, so the next forward pass reuses them. All
// Nodes and pool-owned Tensors handed out since the previous Reset —
// including gradients returned by ParamGrad and tensors from NewTensor —
// are invalidated. Caller-owned tensors (Param values, Const inputs) are
// untouched.
func (g *Graph) Reset() {
	if g.free == nil && len(g.owned) > 0 {
		g.free = make(map[int][]*Tensor)
	}
	for _, t := range g.owned {
		sz := len(t.Data)
		g.free[sz] = append(g.free[sz], t)
	}
	g.owned = g.owned[:0]
	g.spareNodes = append(g.spareNodes, g.nodes...)
	g.nodes = g.nodes[:0]
	g.partsArena = g.partsArena[:0]
	clear(g.params)
}

// NewTensor returns a zeroed rows×cols tensor drawn from the tape's pool.
// It is valid until the next Reset; use it for per-step scratch (masks,
// targets) that lives exactly as long as the tape.
func (g *Graph) NewTensor(rows, cols int) *Tensor {
	return g.alloc(rows, cols, true)
}

// alloc returns a pooled rows×cols tensor. With zero=false the contents are
// arbitrary and the caller must overwrite every element.
func (g *Graph) alloc(rows, cols int, zero bool) *Tensor {
	sz := rows * cols
	if list := g.free[sz]; len(list) > 0 {
		t := list[len(list)-1]
		g.free[sz] = list[:len(list)-1]
		t.Rows, t.Cols = rows, cols
		if zero {
			t.Zero()
		}
		g.owned = append(g.owned, t)
		return t
	}
	t := New(rows, cols)
	g.owned = append(g.owned, t)
	return t
}

// getNode returns a recycled (zeroed) Node or a fresh one.
func (g *Graph) getNode() *Node {
	if k := len(g.spareNodes); k > 0 {
		n := g.spareNodes[k-1]
		g.spareNodes = g.spareNodes[:k-1]
		*n = Node{}
		return n
	}
	return &Node{}
}

// push appends an interior node for op with the given output value,
// allocating its gradient buffer from the pool when needed.
func (g *Graph) push(val *Tensor, op opKind, requiresGrad bool) *Node {
	n := g.getNode()
	n.Val = val
	n.op = op
	n.requiresGrad = requiresGrad
	if requiresGrad {
		n.Grad = g.alloc(val.Rows, val.Cols, true)
	}
	g.nodes = append(g.nodes, n)
	return n
}

// pushInto appends a node for an op that writes a column block of the
// buffer dst in place (see Buffer). The node aliases dst's value and
// gradient, so its backward step reads the block's gradient from there.
func (g *Graph) pushInto(dst *Node, op opKind, requiresGrad bool) *Node {
	if dst.op != opLeaf || dst.Grad == nil {
		panic("tensor: in-place block write into a node that is not a Buffer")
	}
	n := g.getNode()
	n.Val, n.Grad = dst.Val, dst.Grad
	n.op = op
	n.requiresGrad = requiresGrad
	g.nodes = append(g.nodes, n)
	return n
}

// Buffer returns a zeroed rows×cols node whose columns later ops fill in
// place, one block at a time (CopyColsInto, MaskedLinearReLUInto). A
// quantity that grows column by column — the inputs and hidden units of
// an incremental progressive-sampling chain — thus stays one node that
// consumers read as a prefix, instead of a concatenation rebuilt at every
// step. Its gradient accumulates like any node's and flows back to the
// writer of each block. Each column may be written at most once, and only
// before any op reads it.
func (g *Graph) Buffer(rows, cols int) *Node {
	n := g.getNode()
	n.Val = g.alloc(rows, cols, true)
	n.Grad = g.alloc(rows, cols, true)
	n.requiresGrad = true
	g.nodes = append(g.nodes, n)
	return n
}

// Param registers t as a trainable leaf: gradients accumulate into
// node.Grad. The tensor is shared, not copied, so optimizer updates to t are
// visible in subsequent graphs. Registering the same tensor twice on one
// graph returns the same node, so layers may bind their weights on every
// forward call without double-counting gradients.
func (g *Graph) Param(t *Tensor) *Node {
	if n, ok := g.params[t]; ok {
		return n
	}
	n := g.getNode()
	n.Val = t
	n.requiresGrad = true
	n.Grad = g.alloc(t.Rows, t.Cols, true)
	g.nodes = append(g.nodes, n)
	if g.params == nil {
		g.params = make(map[*Tensor]*Node)
	}
	g.params[t] = n
	return n
}

// ParamGrad returns the gradient accumulated for t on this graph, or nil if
// t was never registered. The returned tensor is pool-owned: read or copy
// it before the next Reset.
func (g *Graph) ParamGrad(t *Tensor) *Tensor {
	if n, ok := g.params[t]; ok {
		return n.Grad
	}
	return nil
}

// Const registers t as a non-trainable leaf (inputs, masks).
func (g *Graph) Const(t *Tensor) *Node {
	n := g.getNode()
	n.Val = t
	g.nodes = append(g.nodes, n)
	return n
}

// Backward seeds loss with gradient 1 (loss must be 1×1) and propagates
// through the tape in reverse creation order.
func (g *Graph) Backward(loss *Node) {
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 {
		panic("tensor: Backward requires a scalar loss node")
	}
	if !loss.requiresGrad {
		return
	}
	loss.Grad.Data[0] = 1
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		if n.requiresGrad && n.op != opLeaf {
			g.backstep(n)
		}
	}
}
