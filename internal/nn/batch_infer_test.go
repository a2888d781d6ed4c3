package nn

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/tensor"
)

// fillLaneOneHots resets bi, sets one random one-hot per column block in
// every lane through SetInput and mirrors lane l into singles[l].
func fillLaneOneHots(rng *rand.Rand, bi *BatchInference, offsets, colSizes []int, singles [][]float64) {
	bi.Reset()
	for l, row := range singles {
		clear(row)
		for i, off := range offsets {
			flat := off + rng.Intn(colSizes[i])
			row[flat] = 1
			bi.SetInput(l, flat)
		}
	}
}

// inWidth is the one-hot width of a MADE over colSizes.
func inWidth(colSizes []int) int {
	var w int
	for _, s := range colSizes {
		w += s
	}
	return w
}

// colBlock slices column i's logits out of a full logits row.
func colBlock(m *MADE, row []float64, i int) []float64 {
	offs := m.Offsets()
	end := len(row)
	if i+1 < len(offs) {
		end = offs[i+1]
	}
	return row[offs[i]:end]
}

// chainRows runs the training path, m's Chain on a fresh graph, over rows
// (one row of one-hot blocks per sequence) and returns one logits row per
// input row: column i's block is what Next returns given the blocks of
// columns < i. It is the reference every batched inference result must
// match: the chain runs on the autodiff tape, the engine on its own
// kernels and caches, two implementations of the same conditionals.
func chainRows(m *MADE, rows [][]float64) [][]float64 {
	g := tensor.NewGraph()
	c := m.NewChain()
	c.Reset(g, len(rows))
	res := make([][]float64, len(rows))
	var y *tensor.Node
	for i := 0; i < m.NumCols(); i++ {
		logits := c.Next(y)
		for r := range rows {
			res[r] = append(res[r], logits.Val.Row(r)...)
		}
		if i+1 < m.NumCols() {
			s := tensor.New(len(rows), logits.Val.Cols)
			for r, row := range rows {
				copy(s.Row(r), colBlock(m, row, i))
			}
			y = g.Const(s)
		}
	}
	return res
}

// inferRow runs a one-lane batched pass over the 0/1 row — Reset, one
// SetInput per set entry, then ForwardCol per column — and returns every
// logit of the row.
func inferRow(m *MADE, bi *BatchInference, row []float64) []float64 {
	bi.Reset()
	for j, v := range row {
		if v != 0 {
			bi.SetInput(0, j)
		}
	}
	out := make([]float64, 0, len(row))
	for i := 0; i < m.NumCols(); i++ {
		out = append(out, bi.ForwardCol(i).Row(0)...)
	}
	return out
}

// checkBlocks checks every ForwardCol block of bi's first len(want) lanes,
// computed in the given column order, against the chain's logits rows,
// to 1e-12.
func checkBlocks(t *testing.T, m *MADE, bi *BatchInference, want [][]float64, order []int) {
	t.Helper()
	for _, i := range order {
		block := bi.ForwardCol(i)
		for l := range want {
			row := block.Row(l)
			wantBlock := colBlock(m, want[l], i)
			for j := range row {
				if math.Abs(row[j]-wantBlock[j]) > 1e-12 {
					t.Fatalf("ForwardCol(%d) lane %d logit %d: batched %v vs chain %v",
						i, l, j, row[j], wantBlock[j])
				}
			}
		}
	}
}

// ascending returns the column order 0..n−1.
func ascending(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// batchMatchesSingle drives a B-lane batched pass against a
// one-row Chain over each lane's row on its own and checks every
// ForwardCol block agrees lane by lane. The batched ForwardCol path runs
// restricted (head-limited, transposed-dot) kernels, so this is the
// equivalence proof for the whole batched sampling stack.
func batchMatchesSingle(t *testing.T, m *MADE, colSizes []int) {
	t.Helper()
	const lanes = 5
	rng := rand.New(rand.NewSource(41))
	bi := m.NewBatchInference(lanes)
	if bi.Batch() != lanes {
		t.Fatalf("Batch() = %d, want %d", bi.Batch(), lanes)
	}
	singles := make([][]float64, lanes)
	for l := range singles {
		singles[l] = make([]float64, inWidth(colSizes))
	}
	fillLaneOneHots(rng, bi, m.Offsets(), colSizes, singles)

	want := make([][]float64, lanes)
	for l := range want {
		want[l] = chainRows(m, singles[l:l+1])[0]
	}
	checkBlocks(t, m, bi, want, ascending(len(colSizes)))
}

func TestMADEBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	colSizes := []int{3, 5, 2, 7, 4}
	batchMatchesSingle(t, NewMADE(rng, colSizes, 24, 2), colSizes)
}

func TestMADEBatchMatchesSingleOneHiddenLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	colSizes := []int{4, 3, 6}
	batchMatchesSingle(t, NewMADE(rng, colSizes, 16, 1), colSizes)
}

// TestBatchInferenceAnyOrder drives the engine contract outside the
// sampling order: inputs set in random order and split around ForwardCol
// calls, repeated SetInput calls after a ForwardCol, and ForwardCol in
// random column order. Every block must match the chain on the inputs set
// so far.
func TestBatchInferenceAnyOrder(t *testing.T) {
	colSizes := []int{3, 5, 2, 7, 4}
	m := NewMADE(rand.New(rand.NewSource(17)), colSizes, 24, 2)
	t.Run("made", func(t *testing.T) {
		const lanes = 4
		rng := rand.New(rand.NewSource(19))
		bi := m.NewBatchInference(lanes)
		for round := 0; round < 3; round++ {
			// Up to two one-hots per column block, so some rows are
			// multi-hot; every (lane, flat) pair is set once.
			type input struct{ lane, flat int }
			var inputs []input
			for l := 0; l < lanes; l++ {
				for i, off := range m.Offsets() {
					a, b := rng.Intn(colSizes[i]), rng.Intn(colSizes[i])
					inputs = append(inputs, input{l, off + a})
					if b != a {
						inputs = append(inputs, input{l, off + b})
					}
				}
			}
			rng.Shuffle(len(inputs), func(a, b int) { inputs[a], inputs[b] = inputs[b], inputs[a] })
			rows := make([][]float64, lanes)
			for l := range rows {
				rows[l] = make([]float64, inWidth(colSizes))
			}
			bi.Reset()
			split := len(inputs) / 2
			for _, in := range inputs[:split] {
				bi.SetInput(in.lane, in.flat)
				rows[in.lane][in.flat] = 1
			}
			checkBlocks(t, m, bi, chainRows(m, rows), rng.Perm(len(colSizes)))
			for _, in := range inputs[split:] {
				bi.SetInput(in.lane, in.flat)
				rows[in.lane][in.flat] = 1
			}
			want := chainRows(m, rows)
			checkBlocks(t, m, bi, want, rng.Perm(len(colSizes)))
			for _, in := range inputs {
				bi.SetInput(in.lane, in.flat) // repeats are no-ops
			}
			checkBlocks(t, m, bi, want, rng.Perm(len(colSizes)))
		}
	})
}

// TestMADEBatchForwardColAllocFree pins the per-sweep contract the batched
// sampler's throughput rests on: once constructed, a 16-lane sampling
// sweep (Reset, then ForwardCol and a SetInput per lane for every column)
// performs zero heap allocations (kernels serial — the parallel path
// allocates goroutine bookkeeping).
func TestMADEBatchForwardColAllocFree(t *testing.T) {
	defer tensor.SetMatMulWorkers(tensor.MatMulWorkers())
	tensor.SetMatMulWorkers(1)

	colSizes := []int{6, 4, 8, 3}
	m := NewMADE(rand.New(rand.NewSource(12)), colSizes, 32, 2)
	rng := rand.New(rand.NewSource(14))
	const lanes = 16
	bi := m.NewBatchInference(lanes)
	bins := make([]int, lanes*len(colSizes))
	for k := range bins {
		bins[k] = rng.Intn(colSizes[k%len(colSizes)])
	}
	sweep := func() {
		bi.Reset()
		for i, off := range m.Offsets() {
			bi.ForwardCol(i)
			for l := 0; l < lanes; l++ {
				bi.SetInput(l, off+bins[l*len(colSizes)+i])
			}
		}
	}
	sweep() // warm the engine's buffers
	if n := testing.AllocsPerRun(20, sweep); n != 0 {
		t.Fatalf("warm batched sampling sweep allocates %v times, want 0", n)
	}
}

// TestBatchPrefixCacheRetrainInvalidation pins the prefix-activation cache
// against retraining: a full ascending
// ForwardCol sweep warms every cached prefix width, then a parameter
// perturbation with MarkDirty bumps the version stamps; the next sweep —
// with the inputs untouched, so every cache key still matches — must
// recompute from scratch and agree with a fresh Chain. A cache
// keyed on the last-changed input column alone would serve stale
// activations here. Batch 1 is the per-tuple path, so it is covered too.
func TestBatchPrefixCacheRetrainInvalidation(t *testing.T) {
	colSizes := []int{3, 4, 5, 2}
	t.Run("made", func(t *testing.T) {
		for _, lanes := range []int{1, 3} {
			rng := rand.New(rand.NewSource(16))
			m := NewMADE(rand.New(rand.NewSource(14)), colSizes, 20, 2)
			bi := m.NewBatchInference(lanes)
			singles := make([][]float64, lanes)
			for l := range singles {
				singles[l] = make([]float64, inWidth(colSizes))
			}
			fillLaneOneHots(rng, bi, m.Offsets(), colSizes, singles)
			for i := range colSizes {
				bi.ForwardCol(i) // warm every cached prefix width
			}

			for _, p := range m.Params() {
				for i := range p.Data {
					p.Data[i] += 0.05 * rng.NormFloat64()
				}
				p.MarkDirty()
			}

			want := chainRows(m, singles)
			for i := range colSizes {
				block := bi.ForwardCol(i)
				for l := 0; l < lanes; l++ {
					wantBlock := colBlock(m, want[l], i)
					row := block.Row(l)
					for j := range row {
						if math.Abs(row[j]-wantBlock[j]) > 1e-12 {
							t.Fatalf("B=%d col %d lane %d logit %d stale after retrain: %v vs %v",
								lanes, i, l, j, row[j], wantBlock[j])
						}
					}
				}
			}
		}
	})
}

// TestMADEBatchTracksRetraining checks the transposed-weight caches follow
// weight updates: mutating a layer (with MarkDirty, as optimizers do) must
// change the batched ForwardCol output to match a fresh Chain.
func TestMADEBatchTracksRetraining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	colSizes := []int{3, 4, 5}
	m := NewMADE(rng, colSizes, 12, 2)
	bi := m.NewBatchInference(2)
	singles := make([][]float64, 2)
	for l := range singles {
		singles[l] = make([]float64, inWidth(colSizes))
	}
	fillLaneOneHots(rng, bi, m.Offsets(), colSizes, singles)
	bi.ForwardCol(len(colSizes) - 1) // populate caches pre-update

	for _, p := range m.Params() {
		for i := range p.Data {
			p.Data[i] += 0.05 * rng.NormFloat64()
		}
		p.MarkDirty()
	}

	want := chainRows(m, singles)
	last := len(colSizes) - 1
	block := bi.ForwardCol(last)
	for l := 0; l < 2; l++ {
		wantBlock := colBlock(m, want[l], last)
		row := block.Row(l)
		for j := range row {
			if math.Abs(row[j]-wantBlock[j]) > 1e-12 {
				t.Fatalf("lane %d logit %d stale after retrain: %v vs %v",
					l, j, row[j], wantBlock[j])
			}
		}
	}
}

// TestMADEMasksSuffixMonotone pins the mask shape the batched engine
// relies on in place of a dense fallback: in every layer NewMADE builds,
// each mask row is ones exactly on its span [start, n) — a suffix — and
// the starts never decrease, so empty rows ([n, n)) come last.
func TestMADEMasksSuffixMonotone(t *testing.T) {
	cases := []struct {
		name              string
		colSizes          []int
		hidden, numHidden int
	}{
		{"single-column", []int{5}, 8, 2},
		{"hidden<ncols", []int{3, 2, 4, 2, 5, 3, 2, 4, 3}, 4, 2},
		{"one-layer", []int{6, 3, 9, 2}, 16, 1},
		{"two-layers", []int{6, 3, 9, 2}, 16, 2},
		{"three-layers", []int{6, 3, 9, 2}, 16, 3},
		// The IMDB join layout's column sizes (4 to 500 bins).
		{"imdb", []int{7, 77, 32, 11, 32, 4, 32, 71, 32, 5, 32, 500}, 64, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMADE(rand.New(rand.NewSource(3)), tc.colSizes, tc.hidden, tc.numHidden)
			for li, l := range m.layers {
				spans, n := l.cache.Spans(), l.W.Cols
				prev := 0
				for k := 0; k < l.W.Rows; k++ {
					s, e := spans[2*k], spans[2*k+1]
					if e != n || s < prev {
						t.Fatalf("layer %d row %d: span [%d,%d) after start %d, want a suffix of %d with nondecreasing start",
							li, k, s, e, prev, n)
					}
					for j, v := range l.Mask.Row(k) {
						if (v != 0) != (j >= s) {
							t.Fatalf("layer %d row %d: mask[%d] = %v outside/inside span start %d", li, k, j, v, s)
						}
					}
					prev = s
				}
			}
		})
	}
}
