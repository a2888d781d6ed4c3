// Package nn provides the neural-network building blocks SAM trains:
// masked linear layers, the MADE masked autoencoder used as the
// autoregressive network, and the Adam optimizer. MADE has two forward
// paths and no other: training runs on the internal/tensor autodiff
// engine through its incremental Chain, one column per step, and sampling
// and estimation run the allocation-free batched inference engine
// (BatchInference). The two are independent implementations of the same
// conditionals, and the tests check each against the other.
package nn

import (
	"fmt"
	"math/rand"

	"sam/internal/tensor"
)

// MaskedLinear is a linear layer whose weight matrix is elementwise gated by
// a fixed binary mask — the mechanism MADE uses to enforce autoregressive
// structure.
type MaskedLinear struct {
	W    *tensor.Tensor // in×out
	B    *tensor.Tensor // 1×out
	Mask *tensor.Tensor // in×out, 0/1, fixed

	// cache holds W∘Mask, recomputed only when W is marked dirty by an
	// optimizer step, so neither the training chain nor batched inference
	// multiplies by the mask per call.
	cache *tensor.MaskedWeight
}

// NewMaskedLinear returns a Glorot-initialized masked layer. The mask is
// retained by reference and must not be mutated afterwards. Direct writes to
// W after construction must be followed by W.MarkDirty() so the masked-weight
// cache notices (nn.Adam does this automatically).
func NewMaskedLinear(rng *rand.Rand, in, out int, mask *tensor.Tensor) *MaskedLinear {
	if mask.Rows != in || mask.Cols != out {
		panic(fmt.Sprintf("nn: mask shape %v does not match layer %d×%d", mask, in, out))
	}
	l := &MaskedLinear{W: tensor.New(in, out), B: tensor.New(1, out), Mask: mask}
	l.W.XavierInit(rng, in, out)
	l.cache = tensor.NewMaskedWeight(l.W, mask)
	return l
}

// forwardWindow computes output units [colOff, colEnd) of the layer from
// its first rowEnd inputs: x[:, :rowEnd]·(W∘Mask)[:rowEnd, colOff:colEnd]
// plus the matching bias entries. It equals the same columns of the full
// layer whenever the mask leaves those units no inputs at or past rowEnd.
func (l *MaskedLinear) forwardWindow(g *tensor.Graph, x *tensor.Node, rowEnd, colOff, colEnd int) *tensor.Node {
	mm := g.MaskedMatMulWindow(x, g.Param(l.W), l.cache, rowEnd, colOff, colEnd)
	return g.AddRowAt(mm, g.Param(l.B), colOff)
}

// Params returns the trainable tensors of the layer.
func (l *MaskedLinear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }
