// Package tensor provides dense float64 matrices and a small reverse-mode
// automatic differentiation engine. It is the substrate that stands in for
// the deep-learning framework used by the SAM paper: just enough machinery
// (matmul, activations, softmax-derived ops, Gumbel-Softmax) to train masked
// autoregressive density models from query workloads on a CPU.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Tensor is a dense, row-major 2-D matrix of float64. Vectors are
// represented as 1×n or n×1 tensors. The zero value is not useful; use New
// or FromSlice.
type Tensor struct {
	Rows, Cols int
	Data       []float64

	// version counts in-place mutations announced via MarkDirty; consumers
	// such as MaskedWeight use it as a dirty bit for derived caches.
	version uint64
}

// New returns a zero-initialized rows×cols tensor.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d×%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Version returns the mutation counter maintained by MarkDirty. It only
// advances when writers announce their updates; direct Data writes do not
// move it.
func (t *Tensor) Version() uint64 { return atomic.LoadUint64(&t.version) }

// MarkDirty advances the mutation counter, invalidating caches derived from
// this tensor (e.g. MaskedWeight). Optimizers call it after updating
// parameters in place.
func (t *Tensor) MarkDirty() { atomic.AddUint64(&t.version, 1) }

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns the element at row i, column j.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Row returns a view (shared storage) of row i.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool { return t.Rows == o.Rows && t.Cols == o.Cols }

// String describes the tensor shape.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%d×%d)", t.Rows, t.Cols)
}

// Randn fills t with Gaussian noise scaled by std using rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// XavierInit fills t with the Glorot-uniform initialization for a layer with
// the given fan-in and fan-out.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		u := float64(rng.Float64()) // the conversions round: no GOARCH fuses this line
		t.Data[i] = (float64(2*u) - 1) * limit
	}
}

// Every dense matmul runs on one kernel, MatMulPrefixInto's lane tiles: a·b
// (MatMulInto, Graph.MatMul), the masked windows of the training chain,
// and the gradients aᵀ·b and a·bᵀ (Graph.matMulTransAAdd,
// Graph.MatMulTransBAddInto), which transpose an operand into tape scratch
// first. Each element is one sum over k in order from +0 with every
// product rounded before its add, on the AVX2 tiles and on their Go twin
// alike, while the weights are finite. Output rows shard across the
// worker pool in parallel.go when the product is large enough.

// vectorKernels selects the AVX2 twins of axpy1, ExpRowMass's exp loop
// and MatMulPrefixInto's tiles (vector_amd64.s). It is set once at
// start-up from CPUID and stays false on hosts without AVX2 and on every
// other GOARCH, which run the Go loops. The twins store the same bits as
// the Go loops, so the setting changes speed only; tests flip it to check
// exactly that.
var vectorKernels = haveAVX2()

// VectorKernels reports whether the AVX2 twins are in use.
func VectorKernels() bool { return vectorKernels }

// vectorMinLen is the shortest row axpy1 hands to its vector twin; below
// it the call costs more than the lanes save.
const vectorMinLen = 8

// axpy1 computes dst += v·b elementwise over len(b) elements.
func axpy1(dst, b []float64, v float64) {
	if n := len(b); vectorKernels && n >= vectorMinLen {
		axpy1AVX2(dst[:n], b, v)
		return
	}
	axpy1Go(dst, b, v)
}

// axpy1Go is the reference loop of axpy1. Reslicing lets the compiler drop
// bounds checks in the loop. The product is an explicit float64
// conversion, which the Go spec forbids fusing into an FMA on any GOARCH,
// so each element is dst + v·b rounded after each operation — the
// sequence the AVX2 twin runs per lane.
func axpy1Go(dst, b []float64, v float64) {
	dst = dst[:len(b)]
	for j, bv := range b {
		dst[j] += float64(v * bv)
	}
}

// MatMulInto computes dst = a·b. dst must be a.Rows×b.Cols and distinct from
// both operands.
func MatMulInto(dst, a, b *Tensor) {
	checkMatMul(dst, a, b)
	runKernel(kernelCall{dst: dst, a: a, b: b, k: a.Cols, head: b.Cols})
}

func checkMatMul(dst, a, b *Tensor) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v·%v→%v", a, b, dst))
	}
}

// AddInPlace adds o to t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic("tensor: add shape mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// SoftmaxRowInto writes the numerically stable softmax of src into dst. The
// two slices must have the same length and may alias.
func SoftmaxRowInto(dst, src []float64) {
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// expRowSafe bounds the single-pass range of ExpRowMass: for |v| ≤ 700,
// exp(v) is a normal, finite float64 (no overflow, no denormal), so a row
// of such entries needs no max subtraction and the stored exponentials
// remain exactly invertible by log if a rescue must reconstruct them.
const expRowSafe = 700

// ExpRowMass writes exp(src) into dst (same length, may alias) and returns
// the total mass Σ dst — the fused form behind in-logits sampling: one
// pass produces both the unnormalized weights and the CDF total a
// categorical draw needs, with no separate probability buffer, summation
// pass, or (on this common path) max scan. In-range entries go through
// expBounded, whose ~7e-12 relative error is invisible at draw and
// estimate tolerances. Entries outside (−700, 700) — far beyond any
// trained logit — divert to the classic max-subtracted two-pass form, so
// the result is finite and positive for every row with a finite maximum,
// exactly as if the stable form had run throughout.
//
// With vectorKernels the AVX2 twin takes the row four entries at a time
// and stops before any group holding an out-of-range entry or a NaN; the
// Go loop resumes there, so the rescue sees the same row state, and the
// mass is summed in index order on both paths.
func ExpRowMass(dst, src []float64) float64 {
	var mass float64
	i := 0
	if vectorKernels {
		mass, i = expRowMassAVX2(dst[:len(src)], src)
	}
	for ; i < len(src); i++ {
		v := src[i]
		if !(math.Abs(v) <= expRowSafe) { // also catches NaN
			return expRowMassRescue(dst, src, i)
		}
		e := expBounded(v)
		dst[i] = e
		mass += e
	}
	if mass > math.MaxFloat64 {
		// Entries are individually ≤ e⁷⁰⁰ but a very long row can still
		// overflow the sum; rerun shifted.
		return expRowMassRescue(dst, src, len(src))
	}
	return mass
}

// expBounded computes exp(x) for |x| ≤ expRowSafe. The bound kills every
// special case math.Exp must guard against (±Inf, NaN, overflow,
// denormals), leaving the classic Cody–Waite reduction x = k·ln2 + r and a
// degree-10 Taylor polynomial on |r| ≤ ln2/2 — evaluated Estrin-style so
// the chains pipeline — with truncation error under 7e-12 relative. The
// branch-free body is what makes the hot exp loop of ExpRowMass beat the
// guarded archExp call per logit.
func expBounded(x float64) float64 {
	// Round-to-nearest via the 1.5·2⁵² shifter: adding it pushes the
	// integer part into the mantissa's low bits, so subtracting it back
	// yields round(x/ln2) with two adds instead of a Floor call. Products
	// are float64 conversions so no GOARCH fuses them into FMAs (see
	// axpy1Go): the AVX2 twin repeats exactly these roundings.
	kf := float64(x*expLog2E) + expShifter
	kf -= expShifter
	r := x - float64(kf*expLn2Hi) - float64(kf*expLn2Lo)
	r2 := r * r
	r4 := r2 * r2
	g0 := (1 + r) + float64((exp2C+float64(exp3C*r))*r2)
	g1 := (exp4C + float64(exp5C*r)) + float64((exp6C+float64(exp7C*r))*r2)
	g2 := (exp8C + float64(exp9C*r)) + float64(exp10C*r2)
	p := g0 + float64((g1+float64(g2*r4))*r4)
	return float64(p * math.Float64frombits(uint64(int(kf)+1023)<<52))
}

const (
	expLog2E   = 1.44269504088896340736 // 1/ln2
	expLn2Hi   = 6.93147180369123816490e-01
	expLn2Lo   = 1.90821492927058770002e-10
	expShifter = 3 << 51 // 1.5·2⁵², the round-to-nearest bias

	// Taylor coefficients 1/k! of exp at 0.
	exp2C  = 1.0 / 2
	exp3C  = 1.0 / 6
	exp4C  = 1.0 / 24
	exp5C  = 1.0 / 120
	exp6C  = 1.0 / 720
	exp7C  = 1.0 / 5040
	exp8C  = 1.0 / 40320
	exp9C  = 1.0 / 362880
	exp10C = 1.0 / 3628800
)

// expRowMassRescue finishes a row whose entry i fell outside ExpRowMass's
// single-pass range (or whose total overflowed): it restores any prefix the
// fused loop already overwrote in aliased calls — log inverts the stored
// exponentials to within an ulp, and the prefix is within ±700 where that
// inversion is well-conditioned — then applies the max-subtracted form to
// the whole row.
func expRowMassRescue(dst, src []float64, i int) float64 {
	if i > 0 && &dst[0] == &src[0] {
		for j := 0; j < i; j++ {
			dst[j] = math.Log(dst[j])
		}
	}
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	var mass float64
	for k, v := range src {
		e := math.Exp(v - maxv)
		dst[k] = e
		mass += e
	}
	return mass
}
