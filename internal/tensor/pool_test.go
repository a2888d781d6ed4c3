package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestGraphResetReuse checks that a Reset tape recycles its buffers: the
// second identical forward pass allocates nothing new and still computes the
// right values and gradients.
func TestGraphResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := New(4, 3)
	w.Randn(rng, 0.5)
	x := New(2, 4)
	x.Randn(rng, 1)

	run := func(g *Graph) (float64, []float64) {
		p := g.Param(w)
		out := g.MatMul(g.Const(x), p)
		loss := g.Mean(g.Square(out))
		g.Backward(loss)
		return loss.Val.Data[0], g.ParamGrad(w).Data
	}

	g := NewGraph()
	loss1, grad1 := run(g)
	want := append([]float64(nil), grad1...)

	g.Reset()
	loss2, grad2 := run(g)
	if loss1 != loss2 {
		t.Fatalf("loss changed across Reset: %v vs %v", loss1, loss2)
	}
	for i := range want {
		if grad2[i] != want[i] {
			t.Fatalf("grad[%d] changed across Reset: %v vs %v", i, grad2[i], want[i])
		}
	}
}

// TestGraphNewTensorZeroed checks pooled scratch comes back zeroed even when
// the recycled buffer held garbage.
func TestGraphNewTensorZeroed(t *testing.T) {
	g := NewGraph()
	a := g.NewTensor(3, 5)
	fill(a, 42)
	g.Reset()
	b := g.NewTensor(3, 5)
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: %v", i, v)
		}
	}
}

// TestMaskedWeightInvalidation checks the W∘Mask cache tracks MarkDirty.
func TestMaskedWeightInvalidation(t *testing.T) {
	w := FromSlice(2, 2, []float64{1, 2, 3, 4})
	mask := FromSlice(2, 2, []float64{1, 0, 0, 1})
	c := NewMaskedWeight(w, mask)
	got := c.Get()
	wantA := []float64{1, 0, 0, 4}
	for i := range wantA {
		if got.Data[i] != wantA[i] {
			t.Fatalf("initial cache wrong: %v", got.Data)
		}
	}
	if c.Get() != got {
		t.Fatalf("clean cache recomputed a different tensor")
	}

	w.Data[0] = 10
	w.Data[1] = 20
	w.MarkDirty()
	got = c.Get()
	wantB := []float64{10, 0, 0, 4}
	for i := range wantB {
		if got.Data[i] != wantB[i] {
			t.Fatalf("post-dirty cache wrong: %v", got.Data)
		}
	}
}

// TestMaskedMatMulMatchesReference checks the fused op over its full
// window against the composition it replaces,
// MatMul(x, MulElem(w, Const(mask))), forward
// and backward, across mask styles (random interior zeros, MADE-style
// contiguous suffixes, all-zero rows) and shapes large enough to drive the
// 4-row blocked span kernels through their intersection and leftover
// paths.
func TestMaskedMatMulMatchesReference(t *testing.T) {
	maskStyles := map[string]func(rng *rand.Rand, mask *Tensor){
		"random": func(rng *rand.Rand, mask *Tensor) {
			for i := range mask.Data {
				if rng.Intn(2) == 1 {
					mask.Data[i] = 1
				}
			}
		},
		"suffix": func(rng *rand.Rand, mask *Tensor) {
			// MADE-like: each row's nonzeros are one suffix, of a length
			// that varies row to row so adjacent rows in a 4-block have
			// different spans.
			for r := 0; r < mask.Rows; r++ {
				for c := rng.Intn(mask.Cols + 1); c < mask.Cols; c++ {
					mask.Set(r, c, 1)
				}
			}
		},
		"zero-rows": func(rng *rand.Rand, mask *Tensor) {
			for r := 0; r < mask.Rows; r++ {
				if r%3 == 0 {
					continue // entire row masked out
				}
				for c := 0; c < mask.Cols; c++ {
					if rng.Intn(4) > 0 {
						mask.Set(r, c, 1)
					}
				}
			}
		},
	}
	shapes := []struct{ batch, in, out int }{
		{3, 5, 4},
		{8, 37, 29}, // odd sizes: blocked paths plus scalar tails
		{16, 64, 48},
	}
	for name, fill := range maskStyles {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(11))
			w := New(sh.in, sh.out)
			w.Randn(rng, 0.7)
			mask := New(sh.in, sh.out)
			fill(rng, mask)
			x := New(sh.batch, sh.in)
			x.Randn(rng, 1)
			cache := NewMaskedWeight(w, mask)

			gRef := NewGraph()
			xr := gRef.Param(x)
			wr := gRef.Param(w)
			outRef := gRef.MatMul(xr, gRef.MulElem(wr, gRef.Const(mask)))
			lossRef := gRef.Mean(gRef.Square(outRef))
			gRef.Backward(lossRef)

			gFused := NewGraph()
			xf := gFused.Param(x)
			wf := gFused.Param(w)
			outFused := gFused.MaskedMatMulWindow(xf, wf, cache, sh.in, 0, sh.out)
			lossFused := gFused.Mean(gFused.Square(outFused))
			gFused.Backward(lossFused)

			for i := range outRef.Val.Data {
				if !almostEq(outRef.Val.Data[i], outFused.Val.Data[i], 1e-12) {
					t.Fatalf("%s forward mismatch at %d: %v vs %v", name, i, outRef.Val.Data[i], outFused.Val.Data[i])
				}
			}
			for i := range w.Data {
				if !almostEq(wr.Grad.Data[i], wf.Grad.Data[i], 1e-12) {
					t.Fatalf("%s dW mismatch at %d: %v vs %v", name, i, wr.Grad.Data[i], wf.Grad.Data[i])
				}
			}
			for i := range x.Data {
				if !almostEq(xr.Grad.Data[i], xf.Grad.Data[i], 1e-12) {
					t.Fatalf("%s dX mismatch at %d: %v vs %v", name, i, xr.Grad.Data[i], xf.Grad.Data[i])
				}
			}
		}
	}
}

// TestMaskedMatMulGradCheck numerically verifies the fused op's weight
// gradient over its full window. The closure marks W dirty so the cache follows the finite
// differences.
func TestMaskedMatMulGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := New(4, 3)
	w.Randn(rng, 0.6)
	mask := New(4, 3)
	for i := range mask.Data {
		if rng.Intn(3) > 0 {
			mask.Data[i] = 1
		}
	}
	x := New(2, 4)
	x.Randn(rng, 1)
	cache := NewMaskedWeight(w, mask)
	gradCheck(t, w, func(g *Graph, p *Node) *Node {
		w.MarkDirty()
		out := g.MaskedMatMulWindow(g.Const(x), p, cache, 4, 0, 3)
		return g.Mean(g.Square(out))
	})
}

// TestParallelKernelsMatchSerial checks every matmul produces bit-identical
// results with 1 and 4 workers across shapes that exercise full tiles,
// leftover lanes, unit tails and one-hot inputs.
func TestParallelKernelsMatchSerial(t *testing.T) {
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(17))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {8, 64, 8}, {33, 65, 129}, {64, 512, 64},
	}
	for _, sh := range shapes {
		a := New(sh.m, sh.k)
		a.Randn(rng, 1)
		bT := New(sh.k, sh.n) // operand for a·b
		bT.Randn(rng, 1)
		bRowMajor := New(sh.n, sh.k) // operand for a·bᵀ
		bRowMajor.Randn(rng, 1)
		aTall := New(sh.k, sh.m) // operand for aᵀ·b, a is k×m
		aTall.Randn(rng, 1)
		bTall := New(sh.k, sh.n)
		bTall.Randn(rng, 1)
		// A one-hot a, whose zero activations the Go twin skips.
		aSparse := New(sh.m, sh.k)
		for i := 0; i < sh.m; i++ {
			aSparse.Set(i, rng.Intn(sh.k), 1)
		}

		type kernel struct {
			name string
			dst  func() *Tensor
			run  func(dst *Tensor)
		}
		kernels := []kernel{
			{"MatMul", func() *Tensor { return New(sh.m, sh.n) }, func(d *Tensor) { MatMulInto(d, a, bT) }},
			{"MatMulSparse", func() *Tensor { return New(sh.m, sh.n) }, func(d *Tensor) { MatMulInto(d, aSparse, bT) }},
			{"MatMulTransAAdd", func() *Tensor { d := New(sh.m, sh.n); fill(d, 0.5); return d }, func(d *Tensor) { NewGraph().matMulTransAAdd(d, aTall, bTall) }},
			{"MatMulTransBAdd", func() *Tensor { d := New(sh.m, sh.n); fill(d, 0.5); return d }, func(d *Tensor) { NewGraph().MatMulTransBAddInto(d, a, bRowMajor) }},
		}
		for _, kr := range kernels {
			SetMatMulWorkers(1)
			serial := kr.dst()
			kr.run(serial)
			SetMatMulWorkers(4)
			par := kr.dst()
			kr.run(par)
			for i := range serial.Data {
				if serial.Data[i] != par.Data[i] {
					t.Fatalf("%s %dx%dx%d: serial/parallel mismatch at %d: %v vs %v",
						kr.name, sh.m, sh.k, sh.n, i, serial.Data[i], par.Data[i])
				}
			}
		}
	}
}

// TestWarmTapeAllocs checks the headline pooling property: a warm tape's
// forward+backward step performs no heap allocation. Kernels are forced
// serial because the parallel path allocates goroutine bookkeeping.
func TestWarmTapeAllocs(t *testing.T) {
	old := MatMulWorkers()
	SetMatMulWorkers(1)
	defer SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(19))
	w := New(32, 16)
	w.Randn(rng, 0.5)
	b := New(1, 16)
	mask := New(32, 16)
	for i := range mask.Data {
		if rng.Intn(2) == 1 {
			mask.Data[i] = 1
		}
	}
	cache := NewMaskedWeight(w, mask)
	x := New(8, 32)
	x.Randn(rng, 1)
	in := New(8, 16)
	for i := range in.Data {
		in.Data[i] = float64(rng.Intn(2))
	}
	for r := 0; r < 8; r++ {
		in.Set(r, r, 1) // no row may be empty
	}

	g := NewGraph()
	step := func() {
		g.Reset()
		p := g.Param(w)
		out := g.AddRowAt(g.MaskedMatMulWindow(g.Const(x), p, cache, 32, 0, 16), g.Param(b), 0)
		h := g.ReLU(out)
		loss := g.Mean(g.Square(g.Log(g.RangeProb(h, in))))
		g.Backward(loss)
	}
	step() // warm the pool
	step() // reach steady-state capacities
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("warm forward+backward step allocates %v times, want 0", n)
	}
}

// TestParallelPooledGraphsRace exercises the parallel kernels and per-worker
// pooled tapes from concurrent goroutines; meaningful under -race.
func TestParallelPooledGraphsRace(t *testing.T) {
	old := MatMulWorkers()
	SetMatMulWorkers(4)
	defer SetMatMulWorkers(old)

	w := New(64, 48)
	mask := New(64, 48)
	seedRng := rand.New(rand.NewSource(23))
	w.Randn(seedRng, 0.5)
	for i := range mask.Data {
		if seedRng.Intn(2) == 1 {
			mask.Data[i] = 1
		}
	}
	cache := NewMaskedWeight(w, mask)
	wt := New(48, 64)
	wt.Randn(seedRng, 0.5)

	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			g := NewGraph()
			x := New(16, 64)
			for step := 0; step < 10; step++ {
				g.Reset()
				x.Randn(rng, 1)
				p := g.Param(w)
				out := g.MaskedMatMulWindow(g.Const(x), p, cache, 64, 0, 48)
				big := g.MatMul(out, g.Const(wt)) // 16×48 · 48×64 → 16×64
				loss := g.Mean(g.Square(big))
				g.Backward(loss)
				if math.IsNaN(loss.Val.Data[0]) {
					t.Error("NaN loss")
					return
				}
			}
		}(int64(worker) + 31)
	}
	wg.Wait()

	// Concurrent Get with a dirty cache: all readers must agree.
	w.Data[0] += 1
	w.MarkDirty()
	var wg2 sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			got := cache.Get()
			if got.Data[0] != w.Data[0]*mask.Data[0] {
				t.Errorf("stale cache read: %v", got.Data[0])
			}
		}()
	}
	wg2.Wait()
}
