package hotalloc

import "sam/internal/tensor"

// Warm loops must not allocate fresh tensors or call allocating ops with
// ...Into siblings.
func hotLoop(a, b *tensor.Tensor, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		t := tensor.New(4, 4)                   // want `tensor\.New allocates inside a loop`
		v := tensor.FromSlice(1, 4, a.Data[:4]) // want `tensor\.FromSlice allocates inside a loop`
		c := a.Clone()                          // want `Clone allocates inside a loop`
		p := product(a, b)                      // want `product allocates its result inside a loop; use productInto`
		sum += t.Data[0] + v.Data[0] + c.Data[0] + p.Data[0]
	}
	return sum
}

// The pre-fusion sampling loop normalized each lane's logits into a fresh
// probability slice before walking the CDF; the fused path exponentiates
// the logit row in place (tensor.ExpRowMass) and draws straight from the
// unnormalized masses, so a per-lane probs slice in the sweep is a bug.
func drawSweep(logits *tensor.Tensor) int {
	bins := 0
	for l := 0; l < logits.Rows; l++ {
		var probs []float64
		for _, v := range logits.Row(l) {
			probs = append(probs, v) // want `append grows probs, a temporary declared in a loop body`
		}
		bins += len(probs)
	}
	return bins
}

// A temporary declared in a loop body regrows from nil every iteration.
func growingTemp(rows [][]float64) int {
	total := 0
	for _, r := range rows {
		var hot []float64
		for _, v := range r {
			if v > 0 {
				hot = append(hot, v) // want `append grows hot, a temporary declared in a loop body`
			}
		}
		total += len(hot)
	}
	return total
}

// product is an allocating form whose package also declares the Into
// sibling, productInto: calling it in a loop is flagged.
func product(a, b *tensor.Tensor) *tensor.Tensor {
	dst := tensor.New(a.Rows, b.Cols)
	productInto(dst, a, b)
	return dst
}

func productInto(dst, a, b *tensor.Tensor) { tensor.MatMulInto(dst, a, b) }
