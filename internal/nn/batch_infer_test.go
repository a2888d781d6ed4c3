package nn

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

// fillLaneOneHots sets one random one-hot per column block in every lane
// of x and mirrors lane l into singles[l].
func fillLaneOneHots(rng *rand.Rand, x *tensor.Tensor, offsets, colSizes []int, singles [][]float64) {
	for l := 0; l < x.Rows; l++ {
		row := x.Row(l)
		for i := range row {
			row[i] = 0
		}
		for i, off := range offsets {
			row[off+rng.Intn(colSizes[i])] = 1
		}
		copy(singles[l], row)
	}
}

// colBlock slices column i's logits out of a full logits row.
func colBlock(m Backbone, row []float64, i int) []float64 {
	off := m.Offsets()[i]
	return row[off : off+m.ColSizes()[i]]
}

// autodiffRows runs the training path, Backbone.Forward on a fresh graph,
// over rows and returns one logits row per input row: the reference every
// batched inference result must match.
func autodiffRows(m Backbone, rows [][]float64) [][]float64 {
	x := tensor.New(len(rows), m.InDim())
	for r, row := range rows {
		copy(x.Row(r), row)
	}
	g := tensor.NewGraph()
	out := m.Forward(g, g.Const(x))
	res := make([][]float64, len(rows))
	for r := range res {
		res[r] = append([]float64(nil), out.Val.Row(r)...)
	}
	return res
}

// inferRow runs a one-lane batched forward over row and returns a copy of
// its logits.
func inferRow(bi BatchInference, row []float64) []float64 {
	copy(bi.X().Data, row)
	bi.InvalidateFrom(0)
	return append([]float64(nil), bi.Forward().Row(0)...)
}

// backboneBatchMatchesSingle drives a B-lane batched forward against the
// autodiff Forward of each lane's row on its own and checks Forward and
// every ForwardCol block agree lane by lane. The batched ForwardCol path
// runs restricted (head-limited, transposed-dot) kernels, so this is the
// equivalence proof for the whole batched sampling stack.
func backboneBatchMatchesSingle(t *testing.T, m Backbone, colSizes []int, tol float64) {
	t.Helper()
	const lanes = 5
	rng := rand.New(rand.NewSource(41))
	bi := m.NewBatchInference(lanes)
	if bi.Batch() != lanes {
		t.Fatalf("Batch() = %d, want %d", bi.Batch(), lanes)
	}
	singles := make([][]float64, lanes)
	for l := range singles {
		singles[l] = make([]float64, m.InDim())
	}
	fillLaneOneHots(rng, bi.X(), m.Offsets(), colSizes, singles)

	want := make([][]float64, lanes)
	for l := range want {
		want[l] = autodiffRows(m, singles[l:l+1])[0]
	}

	out := bi.Forward()
	for l := 0; l < lanes; l++ {
		row := out.Row(l)
		for j := range row {
			if math.Abs(row[j]-want[l][j]) > tol {
				t.Fatalf("Forward lane %d logit %d: batched %v vs autodiff %v",
					l, j, row[j], want[l][j])
			}
		}
	}
	for i := range colSizes {
		block := bi.ForwardCol(i)
		for l := 0; l < lanes; l++ {
			row := block.Row(l)
			wantBlock := colBlock(m, want[l], i)
			for j := range row {
				if math.Abs(row[j]-wantBlock[j]) > tol {
					t.Fatalf("ForwardCol(%d) lane %d logit %d: batched %v vs autodiff %v",
						i, l, j, row[j], wantBlock[j])
				}
			}
		}
	}
}

func TestMADEBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	colSizes := []int{3, 5, 2, 7, 4}
	backboneBatchMatchesSingle(t, NewMADE(rng, colSizes, 24, 2), colSizes, 1e-9)
}

func TestMADEBatchMatchesSingleOneHiddenLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	colSizes := []int{4, 3, 6}
	backboneBatchMatchesSingle(t, NewMADE(rng, colSizes, 16, 1), colSizes, 1e-9)
}

func TestTransformerBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	colSizes := []int{3, 4, 2}
	backboneBatchMatchesSingle(t, NewTransformer(rng, colSizes, 16, 2, 32, 2), colSizes, 1e-9)
}

// TestMADEBatchForwardColAllocFree pins the per-sweep contract the batched
// sampler's throughput rests on: once constructed, a batched ForwardCol
// performs zero heap allocations (kernels serial — the parallel path
// allocates goroutine bookkeeping).
func TestMADEBatchForwardColAllocFree(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(12))
	colSizes := []int{6, 4, 8, 3}
	m := NewMADE(rng, colSizes, 32, 2)
	bi := m.NewBatchInference(16)
	singles := make([][]float64, 16)
	for l := range singles {
		singles[l] = make([]float64, m.InDim())
	}
	fillLaneOneHots(rng, bi.X(), m.Offsets(), colSizes, singles)
	sweep := func() {
		for i := range colSizes {
			bi.ForwardCol(i)
		}
	}
	sweep() // warm transposed-weight caches
	if n := testing.AllocsPerRun(20, sweep); n != 0 {
		t.Fatalf("warm batched ForwardCol sweep allocates %v times, want 0", n)
	}
}

// TestBatchPrefixCacheRetrainInvalidation pins the prefix-activation (and,
// for the transformer, KV) cache against retraining: a full ascending
// ForwardCol sweep warms every cached prefix width, then a parameter
// perturbation with MarkDirty bumps the version stamps; the next sweep —
// with the inputs untouched, so every cache key still matches — must
// recompute from scratch and agree with a fresh autodiff Forward. A cache
// keyed on the last-changed input column alone would serve stale
// activations here. Batch 1 is the per-tuple path, so it is covered too.
func TestBatchPrefixCacheRetrainInvalidation(t *testing.T) {
	colSizes := []int{3, 4, 5, 2}
	backbones := map[string]func() Backbone{
		"made": func() Backbone {
			return NewMADE(rand.New(rand.NewSource(14)), colSizes, 20, 2)
		},
		"transformer": func() Backbone {
			return NewTransformer(rand.New(rand.NewSource(15)), colSizes, 16, 2, 32, 2)
		},
	}
	for name, build := range backbones {
		t.Run(name, func(t *testing.T) {
			for _, lanes := range []int{1, 3} {
				rng := rand.New(rand.NewSource(16))
				m := build()
				bi := m.NewBatchInference(lanes)
				singles := make([][]float64, lanes)
				for l := range singles {
					singles[l] = make([]float64, m.InDim())
				}
				fillLaneOneHots(rng, bi.X(), m.Offsets(), colSizes, singles)
				for i := range colSizes {
					bi.ForwardCol(i) // warm every cached prefix width
				}

				for _, p := range m.Params() {
					for i := range p.Data {
						p.Data[i] += 0.05 * rng.NormFloat64()
					}
					p.MarkDirty()
				}

				want := autodiffRows(m, singles)
				for i := range colSizes {
					block := bi.ForwardCol(i)
					for l := 0; l < lanes; l++ {
						wantBlock := colBlock(m, want[l], i)
						row := block.Row(l)
						for j := range row {
							if math.Abs(row[j]-wantBlock[j]) > 1e-9 {
								t.Fatalf("B=%d col %d lane %d logit %d stale after retrain: %v vs %v",
									lanes, i, l, j, row[j], wantBlock[j])
							}
						}
					}
				}
			}
		})
	}
}

// TestMADEBatchTracksRetraining checks the transposed-weight caches follow
// weight updates: mutating a layer (with MarkDirty, as optimizers do) must
// change the batched ForwardCol output to match a fresh autodiff Forward.
func TestMADEBatchTracksRetraining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	colSizes := []int{3, 4, 5}
	m := NewMADE(rng, colSizes, 12, 2)
	bi := m.NewBatchInference(2)
	singles := make([][]float64, 2)
	for l := range singles {
		singles[l] = make([]float64, m.InDim())
	}
	fillLaneOneHots(rng, bi.X(), m.Offsets(), colSizes, singles)
	bi.ForwardCol(len(colSizes) - 1) // populate caches pre-update

	for _, p := range m.Params() {
		for i := range p.Data {
			p.Data[i] += 0.05 * rng.NormFloat64()
		}
		p.MarkDirty()
	}

	want := autodiffRows(m, singles)
	last := len(colSizes) - 1
	block := bi.ForwardCol(last)
	for l := 0; l < 2; l++ {
		wantBlock := colBlock(m, want[l], last)
		row := block.Row(l)
		for j := range row {
			if math.Abs(row[j]-wantBlock[j]) > 1e-9 {
				t.Fatalf("lane %d logit %d stale after retrain: %v vs %v",
					l, j, row[j], wantBlock[j])
			}
		}
	}
}
