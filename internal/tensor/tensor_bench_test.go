package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := New(64, 512)
	w := New(512, 64)
	a.Randn(rng, 1)
	w.Randn(rng, 1)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, w)
	}
}

func BenchmarkMatMulSparseInput(b *testing.B) {
	// One-hot style inputs hit the zero-skip fast path.
	rng := rand.New(rand.NewSource(2))
	a := New(64, 512)
	for r := 0; r < 64; r++ {
		for k := 0; k < 12; k++ {
			a.Set(r, rng.Intn(512), 1)
		}
	}
	w := New(512, 64)
	w.Randn(rng, 1)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, w)
	}
}

func BenchmarkRangeProbBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	logits := New(64, 128)
	logits.Randn(rng, 1)
	mask := New(64, 128)
	for i := range mask.Data {
		if rng.Float64() < 0.3 {
			mask.Data[i] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		p := g.Param(logits)
		loss := g.Mean(g.Square(g.Log(g.RangeProb(p, mask))))
		g.Backward(loss)
	}
}

func BenchmarkSTGumbel(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	logits := New(64, 128)
	logits.Randn(rng, 1)
	mask := New(64, 128)
	fill(mask, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		g.STGumbel(g.Const(logits), mask, 1.0, rng)
	}
}
