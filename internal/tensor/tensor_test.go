package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapes(t *testing.T) {
	tt := New(3, 4)
	if tt.Rows != 3 || tt.Cols != 4 || len(tt.Data) != 12 {
		t.Fatalf("bad tensor: %+v", tt)
	}
	tt.Set(2, 3, 7)
	if tt.At(2, 3) != 7 {
		t.Fatalf("At/Set broken")
	}
	if tt.Row(2)[3] != 7 {
		t.Fatalf("Row view broken")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

// fill sets every element of t to v.
func fill(t *Tensor, v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMulInto(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("matmul[%d] = %v want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 3)
	b := New(4, 5)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	// aᵀ·b via explicit transpose.
	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := New(3, 5)
	MatMulInto(want, at, b)
	got := New(3, 5)
	NewGraph().matMulTransAAdd(got, a, b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("TransA mismatch at %d", i)
		}
	}

	c := New(5, 3)
	c.Randn(rng, 1)
	// a·cᵀ
	ct := New(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	want2 := New(4, 5)
	MatMulInto(want2, a, ct)
	got2 := New(4, 5)
	NewGraph().MatMulTransBAddInto(got2, a, c)
	for i := range want2.Data {
		if !almostEq(got2.Data[i], want2.Data[i], 1e-12) {
			t.Fatalf("TransB mismatch at %d", i)
		}
	}
}

func TestSoftmaxRow(t *testing.T) {
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	SoftmaxRowInto(dst, src)
	var sum float64
	for _, v := range dst {
		sum += v
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax not monotone: %v", dst)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	src := []float64{1000, 1001, 999}
	dst := make([]float64, 3)
	SoftmaxRowInto(dst, src)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", dst)
		}
	}
}

func TestExpRowMass(t *testing.T) {
	// Common path: direct exponentials, mass is their sum.
	src := []float64{0, 1, -2}
	dst := make([]float64, 3)
	mass := ExpRowMass(dst, src)
	want := math.Exp(0) + math.Exp(1) + math.Exp(-2)
	if !almostEq(mass, want, 1e-12) {
		t.Fatalf("mass %v, want %v", mass, want)
	}
	for i, v := range src {
		if !almostEq(dst[i], math.Exp(v), 1e-12) {
			t.Fatalf("dst[%d] = %v, want exp(%v)", i, dst[i], v)
		}
	}

	// Rescue paths, aliased the way the samplers call it: rows whose
	// entries leave the single-pass range must still yield a finite,
	// positive mass with the right relative weights.
	cases := [][]float64{
		{1000, 1001, 999},    // overflow, rescued mid-row after no writes
		{1, 2, 1000},         // overflow after the prefix was overwritten
		{-1000, -1001, -999}, // all entries underflow unshifted
		{-800, 0, 3},         // one degenerate entry, rest in range
	}
	for _, c := range cases {
		row := append([]float64(nil), c...)
		mass := ExpRowMass(row, row)
		if math.IsNaN(mass) || math.IsInf(mass, 0) || mass <= 0 {
			t.Fatalf("mass %v for %v", mass, c)
		}
		// The shifted exponentials must preserve pairwise ratios wherever
		// both are representable: check the two largest entries.
		hi, lo := 0, 0
		for i, v := range c {
			if v > c[hi] {
				hi = i
			}
		}
		for i, v := range c {
			if i != hi && (lo == hi || v > c[lo]) {
				lo = i
			}
		}
		if lo == hi {
			lo = (hi + 1) % len(c)
		}
		if wantRatio := math.Exp(c[lo] - c[hi]); !almostEq(row[lo]/row[hi], wantRatio, 1e-9) {
			t.Fatalf("ratio %v, want %v for %v (row %v)", row[lo]/row[hi], wantRatio, c, row)
		}
	}

	// NaN entries poison the mass rather than panicking or hanging.
	nanRow := []float64{1, math.NaN(), 2}
	if m := ExpRowMass(nanRow, nanRow); !math.IsNaN(m) {
		t.Fatalf("NaN row mass %v, want NaN", m)
	}
}

func TestExpBoundedAccuracy(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		got, want := expBounded(x), math.Exp(x)
		if rel := math.Abs(got-want) / want; rel > 1e-11 {
			t.Fatalf("expBounded(%v) = %v, want %v (rel err %v)", x, got, want, rel)
		}
	}
	// Edges of the bounded range, reduction boundaries, and a dense sweep
	// of the logit magnitudes sampling actually produces.
	for _, x := range []float64{-expRowSafe, expRowSafe, 0, math.Ln2 / 2, -math.Ln2 / 2, 1, -1, 709.0 / 2, -745.0 / 2} {
		check(x)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		check((rng.Float64()*2 - 1) * expRowSafe)
		check((rng.Float64()*2 - 1) * 30) // typical logit range
	}
}

// gradCheck numerically verifies dLoss/dParam for a scalar loss built by f.
func gradCheck(t *testing.T, param *Tensor, f func(g *Graph, p *Node) *Node) {
	t.Helper()
	g := NewGraph()
	p := g.Param(param)
	loss := f(g, p)
	g.Backward(loss)
	analytic := p.Grad.Clone()

	// Central differences, rebuilt graph per perturbation.
	const h = 1e-6
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + h
		g2 := NewGraph()
		lp := f(g2, g2.Param(param)).Val.Data[0]
		param.Data[i] = orig - h
		g3 := NewGraph()
		lm := f(g3, g3.Param(param)).Val.Data[0]
		param.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if !almostEq(numeric, analytic.Data[i], 1e-4*(1+math.Abs(numeric))) {
			t.Fatalf("grad[%d]: numeric %v analytic %v", i, numeric, analytic.Data[i])
		}
	}
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := New(3, 2)
	w.Randn(rng, 0.5)
	x := FromSlice(2, 3, []float64{0.5, -1, 2, 1, 0.3, -0.7})
	gradCheck(t, w, func(g *Graph, p *Node) *Node {
		xc := g.Const(x)
		h := g.MatMul(xc, p)
		r := g.ReLU(h)
		return g.Mean(g.Square(r))
	})
}

// TestGradAddRowBias checks the bias add's gradient over the whole bias row
// and over a window of it, the form a windowed layer reads.
func TestGradAddRowBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := New(1, 6)
	b.Randn(rng, 0.5)
	for _, tc := range []struct{ cols, off int }{{6, 0}, {3, 2}} {
		x := New(3, tc.cols)
		x.Randn(rng, 1)
		gradCheck(t, b, func(g *Graph, p *Node) *Node {
			return g.Mean(g.Square(g.AddRowAt(g.Const(x), p, tc.off)))
		})
	}
}

func TestGradMulConstMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := New(2, 3)
	w.Randn(rng, 1)
	mask := FromSlice(2, 3, []float64{1, 0, 1, 0, 1, 1})
	gradCheck(t, w, func(g *Graph, p *Node) *Node {
		return g.Mean(g.Square(g.MulElem(p, g.Const(mask))))
	})
}

func TestGradLogSquareMean(t *testing.T) {
	w := FromSlice(1, 3, []float64{0.5, 1.5, 2.5})
	gradCheck(t, w, func(g *Graph, p *Node) *Node {
		return g.Mean(g.Square(g.Log(p)))
	})
}

func TestGradRangeProb(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := New(2, 4)
	logits.Randn(rng, 1)
	mask := FromSlice(2, 4, []float64{1, 1, 0, 0, 0, 1, 1, 1})
	gradCheck(t, logits, func(g *Graph, p *Node) *Node {
		return g.Mean(g.Square(g.Log(g.RangeProb(p, mask))))
	})
}

func TestRangeProbFullMaskIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logits := New(3, 5)
	logits.Randn(rng, 2)
	mask := New(3, 5)
	fill(mask, 1)
	g := NewGraph()
	p := g.RangeProb(g.Const(logits), mask)
	for i := 0; i < 3; i++ {
		if !almostEq(p.Val.Data[i], 1, 1e-12) {
			t.Fatalf("full-mask prob = %v", p.Val.Data[i])
		}
	}
}

func TestGradDotReciprocal(t *testing.T) {
	a := FromSlice(2, 3, []float64{0.2, 0.5, 0.3, 0.1, 0.8, 0.1})
	vals := []float64{1, 2, 4}
	gradCheck(t, a, func(g *Graph, p *Node) *Node {
		return g.Mean(g.Reciprocal(g.Dot(p, vals)))
	})
}

func TestGradConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(2, 3)
	a.Randn(rng, 1)
	b := New(2, 2)
	b.Randn(rng, 1)
	// A 0/1 column mask slices columns 1–3 of the concatenation, a
	// window that overlaps both parts.
	slice := New(2, 5)
	for r := 0; r < 2; r++ {
		for c := 1; c < 4; c++ {
			slice.Set(r, c, 1)
		}
	}
	gradCheck(t, a, func(g *Graph, p *Node) *Node {
		cat := g.Buffer(2, 5)
		g.CopyColsInto(cat, p, 0)
		g.CopyColsInto(cat, g.Const(b), 3)
		return g.Mean(g.Square(g.MulElem(cat, g.Const(slice))))
	})
}

func TestGradSubMulElemScale(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := New(2, 2)
	a.Randn(rng, 1)
	b := New(2, 2)
	b.Randn(rng, 1)
	gradCheck(t, a, func(g *Graph, p *Node) *Node {
		bc := g.Const(b)
		return g.Mean(g.Square(g.Scale(g.MulElem(g.Sub(p, bc), p), 0.7)))
	})
}

func TestSTGumbelForwardIsOneHotInMask(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := New(5, 6)
	logits.Randn(rng, 1)
	mask := New(5, 6)
	for i := 0; i < 5; i++ {
		mask.Set(i, i%6, 1)
		mask.Set(i, (i+2)%6, 1)
	}
	g := NewGraph()
	out := g.STGumbel(g.Const(logits), mask, 1.0, rng)
	for i := 0; i < 5; i++ {
		var ones, mass int
		for j := 0; j < 6; j++ {
			v := out.Val.At(i, j)
			if v == 1 {
				ones++
				if mask.At(i, j) == 0 {
					t.Fatalf("row %d: sampled outside mask", i)
				}
			} else if v != 0 {
				mass++
			}
		}
		if ones != 1 || mass != 0 {
			t.Fatalf("row %d not one-hot", i)
		}
	}
}

func TestSTGumbelRespectsDistribution(t *testing.T) {
	// With very peaked logits the argmax should almost always pick the peak.
	rng := rand.New(rand.NewSource(10))
	logits := FromSlice(1, 3, []float64{0, 10, 0})
	mask := FromSlice(1, 3, []float64{1, 1, 1})
	hits := 0
	for trial := 0; trial < 200; trial++ {
		g := NewGraph()
		out := g.STGumbel(g.Const(logits), mask, 0.5, rng)
		if out.Val.At(0, 1) == 1 {
			hits++
		}
	}
	if hits < 190 {
		t.Fatalf("peaked logit chosen only %d/200 times", hits)
	}
}

func TestSTGumbelGradientFlows(t *testing.T) {
	// Gradients through the straight-through estimator are not exact, but
	// they must be nonzero and finite for in-mask entries.
	rng := rand.New(rand.NewSource(11))
	logits := New(1, 4)
	logits.Randn(rng, 1)
	mask := FromSlice(1, 4, []float64{1, 1, 1, 0})
	g := NewGraph()
	p := g.Param(logits)
	y := g.STGumbel(p, mask, 1.0, rng)
	loss := g.Mean(g.Square(g.Dot(y, []float64{1, 2, 3, 4})))
	g.Backward(loss)
	var nonzero int
	for _, gv := range p.Grad.Data {
		if math.IsNaN(gv) || math.IsInf(gv, 0) {
			t.Fatalf("bad gradient %v", p.Grad.Data)
		}
		if gv != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no gradient flowed through STGumbel")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	g := NewGraph()
	p := g.Param(New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	g.Backward(p)
}

func TestQuickSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		src := []float64{a, b, c, d}
		for i, v := range src {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				src[i] = 0
			}
			// keep magnitudes sane
			src[i] = math.Mod(src[i], 50)
		}
		dst := make([]float64, 4)
		SoftmaxRowInto(dst, src)
		var sum float64
		for _, v := range dst {
			if v < 0 {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatMulDistributes(t *testing.T) {
	// (A+B)·C == A·C + B·C for random small matrices.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a, b, cm := New(r, k), New(r, k), New(k, c)
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		cm.Randn(rng, 1)
		sum := a.Clone()
		sum.AddInPlace(b)
		left := New(r, c)
		MatMulInto(left, sum, cm)
		ac, bc := New(r, c), New(r, c)
		MatMulInto(ac, a, cm)
		MatMulInto(bc, b, cm)
		ac.AddInPlace(bc)
		for i := range left.Data {
			if !almostEq(left.Data[i], ac.Data[i], 1e-9) {
				t.Fatalf("distributivity violated at trial %d", trial)
			}
		}
	}
}

func TestOpShapeContracts(t *testing.T) {
	// Every binary op must reject mismatched shapes loudly rather than
	// corrupt memory.
	a23 := New(2, 3)
	a32 := New(3, 2)
	a22 := New(2, 2)
	bias13 := New(1, 3)
	cases := []struct {
		name string
		fn   func(g *Graph)
	}{
		{"Add", func(g *Graph) { g.Add(g.Const(a23), g.Const(a32)) }},
		{"Sub", func(g *Graph) { g.Sub(g.Const(a23), g.Const(a22)) }},
		{"MulElem", func(g *Graph) { g.MulElem(g.Const(a23), g.Const(a22)) }},
		{"AddRowAt", func(g *Graph) { g.AddRowAt(g.Const(a22), g.Const(bias13), 2) }},
		{"Dot", func(g *Graph) { g.Dot(g.Const(a23), []float64{1, 2}) }},
		{"RangeProb", func(g *Graph) { g.RangeProb(g.Const(a23), a22) }},
		{"STGumbelShape", func(g *Graph) {
			rng := rand.New(rand.NewSource(1))
			g.STGumbel(g.Const(a23), a22, 1, rng)
		}},
		{"STGumbelTau", func(g *Graph) {
			rng := rand.New(rand.NewSource(1))
			g.STGumbel(g.Const(a23), a23, 0, rng)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted mismatched shapes", c.name)
				}
			}()
			c.fn(NewGraph())
		}()
	}
}
