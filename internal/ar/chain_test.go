package ar

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/relation"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// fullWidthChain is the textbook progressive chain the training step
// optimizes: every step recomputes column i's logits from scratch, with a
// fresh MADE Chain run over all the samples drawn so far, and draws a
// sample at every step, the last included.
func fullWidthChain(m *Model, g *tensor.Graph, sc *chunkScratch,
	n, lastNeeded int, tau float64, rng *rand.Rand) *tensor.Node {
	var samples []*tensor.Node
	var sel *tensor.Node
	for i := 0; i <= lastNeeded; i++ {
		chain := m.Net.NewChain()
		chain.Reset(g, n)
		logits := chain.Next(nil)
		for _, y := range samples {
			logits = chain.Next(y)
		}
		p := g.RangeProb(logits, sc.masks[i])
		if sel == nil {
			sel = p
		} else {
			sel = g.MulElem(sel, p)
		}
		y := g.STGumbel(logits, sc.masks[i], tau, rng)
		samples = append(samples, y)
		if sc.anyDown[i] {
			oneMinus := tensor.New(n, 1)
			for r := 0; r < n; r++ {
				oneMinus.Set(r, 0, 1-sc.deltas[i].At(r, 0))
			}
			recip := g.Reciprocal(g.Dot(y, m.Layout.Cols[i].WeightVals))
			sel = g.MulElem(sel, g.Add(g.MulElem(recip, g.Const(sc.deltas[i])), g.Const(oneMinus)))
		}
	}
	return sel
}

// chainFixture compiles a labelled workload into a model, its specs and a
// batch of spec indices.
func chainFixture(t *testing.T, s *relation.Schema, queries int, cfg Config) (*Model, []*Spec, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var qs []workload.Query
	if s.SingleTable() {
		qs = workload.GenerateSingleRelation(rng, s.Tables[0], queries, workload.DefaultSingleRelationOptions())
	} else {
		qs = workload.GenerateMultiRelation(rng, s, queries, workload.DefaultMultiRelationOptions())
	}
	wl := engine.Label(s, qs)
	m := NewModel(join.NewLayout(s), wl, float64(engine.FOJSize(s)), cfg)
	var specs []*Spec
	var rows []int
	for qi := range wl {
		if spec, err := m.Compile(&wl[qi].Query); err == nil {
			rows = append(rows, len(specs))
			specs = append(specs, spec)
		}
	}
	return m, specs, rows
}

// TestProgressiveChainMatchesFullWidth checks the incremental training
// chain against fullWidthChain: the same Gumbel draws (one chain, so
// skipping the last draw changes no earlier one), the same selectivities,
// and the same gradient for every parameter, on a join layout with
// downweighted fanout columns and on a single relation, also with fewer
// hidden units than columns, so some steps add no band.
func TestProgressiveChainMatchesFullWidth(t *testing.T) {
	made := DefaultConfig()
	made.Hidden = 24
	narrow := made
	narrow.Hidden = 5 // < the 12 columns of the IMDB layout
	cases := []struct {
		name string
		s    *relation.Schema
		cfg  Config
	}{
		{"imdb", datagen.IMDB(3, 120), made},
		{"single", twoColTable(rand.New(rand.NewSource(4)), 200), made},
		{"imdb-hidden<ncols", datagen.IMDB(3, 120), narrow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, cfg := tc.s, tc.cfg
			m, specs, rows := chainFixture(t, s, 48, cfg)
			run := func(chain func(*Model, *tensor.Graph, *chunkScratch, int, int, float64, *rand.Rand) *tensor.Node) (*tensor.Graph, *tensor.Node) {
				g := tensor.NewGraph()
				sc := newChunkScratch(m.Net)
				lastNeeded := fillChunkScratch(m, g, &sc, specs, rows)
				sel := chain(m, g, &sc, len(rows), lastNeeded, 1, rand.New(rand.NewSource(9)))
				g.Backward(g.Mean(g.Square(g.Log(sel))))
				return g, sel
			}
			gRef, ref := run(fullWidthChain)
			g, got := run(progressiveChain)
			near := func(a, b float64) bool {
				return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
			}
			for r, v := range ref.Val.Data {
				if !near(v, got.Val.Data[r]) {
					t.Fatalf("row %d: selectivity %v, want %v", r, got.Val.Data[r], v)
				}
			}
			for pi, p := range m.Net.Params() {
				want, have := gRef.ParamGrad(p), g.ParamGrad(p)
				for k, v := range want.Data {
					hv := 0.0
					if have != nil {
						hv = have.Data[k]
					}
					if !near(v, hv) {
						t.Fatalf("param %d grad[%d] = %v, want %v", pi, k, hv, v)
					}
				}
			}
		})
	}
}

// TestTrainMatMulWorkersDeterministic trains the same model with serial
// matmul kernels and with two kernel workers, on shapes large enough that
// the windowed kernels split their rows, and requires bit-identical
// parameters: a kernel's result must not depend on how its rows were
// split.
func TestTrainMatMulWorkersDeterministic(t *testing.T) {
	old := tensor.MatMulWorkers()
	defer tensor.SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(17))
	cols := make([]*relation.Column, 4)
	for c := range cols {
		cols[c] = relation.NewColumn(string(rune('a'+c)), relation.Categorical, 64)
	}
	for r := 0; r < 400; r++ {
		v := rng.Intn(64)
		for c, col := range cols {
			col.Append(int32((v + c*rng.Intn(3)) % 64))
		}
	}
	s := relation.MustSchema(relation.NewTable("t", cols...))
	qs := workload.GenerateSingleRelation(rng, s.Tables[0], 128, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, qs)}

	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.Workers = 1
	cfg.Model.Intervalize = false
	train := func(workers int) []*tensor.Tensor {
		tensor.SetMatMulWorkers(workers)
		m, err := Train(join.NewLayout(s), wl, 400, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.Net.Params()
	}
	serial, parallel := train(1), train(2)
	for pi := range serial {
		for k, v := range serial[pi].Data {
			if v != parallel[pi].Data[k] {
				t.Fatalf("param %d[%d]: %v with 1 matmul worker, %v with 2", pi, k, v, parallel[pi].Data[k])
			}
		}
	}
}

// TestTrainIndependentOfWorkers is the training half of the determinism
// contract: Workers {0, 1, 2, 4} at GOMAXPROCS {1, 2} train one model,
// byte for byte in its Save form. Batch 128 splits into four chunks,
// and the workload's 160 queries leave a 32-row last batch of four 8-row
// chunks.
func TestTrainIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(19))
	s := twoColTable(rng, 300)
	qs := workload.GenerateSingleRelation(rng, s.Tables[0], 160, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, qs)}

	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 128
	cfg.Model.Hidden = 16
	var want []byte
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 4} {
			cfg.Workers = workers
			m, err := Train(join.NewLayout(s), wl, 300, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("Workers %d at GOMAXPROCS %d trained a different model than Workers 0 at GOMAXPROCS 1", workers, procs)
			}
		}
	}
}
