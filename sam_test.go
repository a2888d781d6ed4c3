package sam_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sam"
	"sam/internal/ar"
	"sam/internal/datagen"
	"sam/internal/workload"
)

// TestEndToEndSingleRelation exercises the documented public flow: build a
// schema, label a workload, train, generate, and check fidelity of the
// input constraints on the generated database.
func TestEndToEndSingleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	age := sam.NewColumn("age", sam.Numeric, 50)
	city := sam.NewColumn("city", sam.Categorical, 8)
	for i := 0; i < 1000; i++ {
		a := rng.Intn(50)
		age.Append(int32(a))
		city.Append(int32((a / 7) % 8)) // city correlates with age
	}
	orig, err := sam.NewSchema(sam.NewTable("people", age, city))
	if err != nil {
		t.Fatal(err)
	}

	queries := workload.GenerateSingleRelation(rng, orig.Tables[0], 120, workload.DefaultSingleRelationOptions())
	wl := &sam.Workload{Queries: sam.Label(orig, queries)}

	layout := sam.NewLayout(orig)
	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = 25
	cfg.Model.Hidden = 32
	model, err := sam.Train(layout, wl, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}

	db, err := sam.Generate(model, map[string]int{"people": 1000}, sam.DefaultGenOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if db.Tables[0].NumRows() != 1000 {
		t.Fatalf("generated %d rows", db.Tables[0].NumRows())
	}

	var qerrs []float64
	for i := range wl.Queries {
		got := sam.Card(db, &wl.Queries[i].Query)
		qerrs = append(qerrs, sam.QError(float64(got), float64(wl.Queries[i].Card)))
	}
	sum := sam.Summarize(qerrs)
	if sum.Median > 4 {
		t.Fatalf("median input-query Q-Error %.2f too high (%v)", sum.Median, sum)
	}

	h := sam.CrossEntropyBits(orig.Tables[0], db.Tables[0])
	if h <= 0 {
		t.Fatalf("cross entropy %v", h)
	}
}

func TestFacadeHelpers(t *testing.T) {
	c := sam.NewColumn("x", sam.Categorical, 3)
	c.Append(0)
	c.Append(2)
	tab := sam.NewTable("t", c)
	s, err := sam.NewSchema(tab)
	if err != nil {
		t.Fatal(err)
	}
	q := sam.Query{Tables: []string{"t"}, Preds: []sam.Predicate{{Table: "t", Column: "x", Op: sam.GE, Code: 1}}}
	if got := sam.Card(s, &q); got != 1 {
		t.Fatalf("Card = %d", got)
	}
	if sam.FOJSize(s) != 2 {
		t.Fatalf("FOJSize = %d", sam.FOJSize(s))
	}
	labeled := sam.Label(s, []sam.Query{q})
	if len(labeled) != 1 || labeled[0].Card != 1 {
		t.Fatal("Label broken")
	}
}

func TestEstimateFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := sam.NewColumn("x", sam.Categorical, 5)
	for i := 0; i < 200; i++ {
		c.Append(int32(rng.Intn(5)))
	}
	s, err := sam.NewSchema(sam.NewTable("t", c))
	if err != nil {
		t.Fatal(err)
	}
	queries := sam.GenerateQueries(4, s, 40, sam.DefaultWorkloadOptions(s))
	wl := &sam.Workload{Queries: sam.Label(s, queries)}
	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = 20
	cfg.Model.Hidden = 16
	m, err := sam.Train(sam.NewLayout(s), wl, 200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sam.Estimate(m, 5, &wl.Queries[0].Query, 8)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || est > 1000 {
		t.Fatalf("estimate %v out of range", est)
	}
	stats := sam.WorkloadStats(wl)
	if stats.Queries != 40 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestGenerateInvariantAcrossWorkers pins the public determinism contract:
// sam.Generate is a pure function of (seed, samples). Workers ∈
// {0, 1, 2, 3} under GOMAXPROCS ∈ {1, 2} all yield the same database;
// Workers 0 means GOMAXPROCS, the default a host would otherwise leak
// into the output through.
func TestGenerateInvariantAcrossWorkers(t *testing.T) {
	orig := datagen.IMDB(19, 60)
	cfg := ar.DefaultConfig()
	cfg.Hidden = 8
	cfg.Seed = 3
	model := ar.NewModel(sam.NewLayout(orig), nil, float64(sam.FOJSize(orig)), cfg)
	sizes := map[string]int{}
	for _, tab := range orig.Tables {
		sizes[tab.Name] = tab.NumRows()
	}
	opts := sam.DefaultGenOptions(11)
	opts.Samples = 17000 // two auto-derived shards
	opts.Batch = 16

	csvs := func(workers int) string {
		o := opts
		o.Workers = workers
		db, err := sam.Generate(model, sizes, o)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range db.Tables {
			if err := tab.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var golden string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 3} {
			got := csvs(workers)
			if golden == "" {
				golden = got
			} else if got != golden {
				t.Fatalf("GOMAXPROCS=%d Workers=%d generated a different database", procs, workers)
			}
		}
	}
}
