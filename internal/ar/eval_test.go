package ar

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

// evalTestModel builds an untrained model over a two-table FK schema and a
// labeled workload on it: join queries mask later columns and downweight
// fanouts, so every branch of the estimator's sweep runs.
func evalTestModel(t *testing.T) (*Model, []workload.CardQuery) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	aCol := relation.NewColumn("a", relation.Categorical, 4)
	a := relation.NewTable("A", aCol)
	bCol := relation.NewColumn("b", relation.Categorical, 5)
	b := relation.NewTable("B", bCol)
	b.Parent = "A"
	for i := 0; i < 50; i++ {
		aCol.Append(int32(rng.Intn(4)))
	}
	for i := 0; i < 120; i++ {
		parent := rng.Intn(50)
		bCol.Append((aCol.Data[parent] + int32(rng.Intn(2))) % 5)
		b.FK = append(b.FK, int64(parent))
	}
	s := relation.MustSchema(a, b)
	queries := engine.Label(s, workload.GenerateMultiRelation(rng, s, 40, workload.DefaultMultiRelationOptions()))
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = 43
	return NewModel(join.NewLayout(s), queries, float64(engine.FOJSize(s)), cfg), queries
}

// TestEvalWorkloadIndependentOfBatchAndWorkers is the evaluation half of
// the determinism contract: every (Batch, Workers) pair gives one Q-Error
// vector, bit for bit. 20 chains per query leave a partial last block at
// batch 7 and fill less than one block at batch 64.
func TestEvalWorkloadIndependentOfBatchAndWorkers(t *testing.T) {
	m, queries := evalTestModel(t)
	var want []float64
	for _, batch := range []int{1, 7, 64} {
		for _, workers := range []int{1, 4} {
			got := EvalWorkload(m, queries, EvalOptions{Samples: 20, Batch: batch, Workers: workers, Seed: 5}, nil)
			if want == nil {
				want = got
				continue
			}
			for qi := range want {
				if math.Float64bits(got[qi]) != math.Float64bits(want[qi]) {
					t.Fatalf("batch %d workers %d: query %d Q-Error %v, batch 1 workers 1 gave %v",
						batch, workers, qi, got[qi], want[qi])
				}
			}
		}
	}
}

// TestEvalWorkloadLabelsQueries checks that model-side evaluation labels
// its eval_query events the way engine.EvalWorkload does: each query lands
// in eval_qerror_by_table under its comma-joined tables and in
// eval_qerror_by_preds under its predicate-count bucket.
func TestEvalWorkloadLabelsQueries(t *testing.T) {
	m, queries := evalTestModel(t)
	reg := obs.NewRegistry()
	EvalWorkload(m, queries, EvalOptions{Samples: 4, Batch: 4, Workers: 2, Seed: 5}, obs.MetricsHooks(reg))

	want := map[string]float64{}
	for _, q := range queries {
		want[`table="`+strings.Join(q.Tables, ",")+`"`]++
		want[`preds="`+obs.PredsBucket(len(q.Preds))+`"`]++
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, f := range fams {
		if f.Name != "eval_qerror_by_table" && f.Name != "eval_qerror_by_preds" {
			continue
		}
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_count") {
				got[s.Labels[0].Name+`="`+s.Labels[0].Value+`"`] += s.Value
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("labeled series %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("series {%s} counted %v queries, want %v (all: %v)", k, got[k], v, got)
		}
	}
}
