package experiments

import (
	"strings"
	"testing"

	"sam/internal/metrics"
	"sam/internal/workload"
)

// microScale is a minimal configuration so the full experiment suite runs
// in seconds under `go test`.
func microScale() Scale {
	s := QuickScale()
	s.CensusRows = 800
	s.DMVRows = 500
	s.IMDBTitles = 200
	s.CensusTrainQ = 80
	s.DMVTrainQ = 60
	s.IMDBTrainQ = 80
	s.TestQ = 30
	s.JOBLightQ = 12
	s.TinyCensusQ = 8
	s.TinyDMVQ = 5
	s.SmallIMDBQ = 20
	s.EvalInputQ = 40
	s.Epochs = 1
	s.Hidden = 16
	s.Batch = 32
	s.IMDBSamples = 3000
	s.Fig5SAMPoints = []int{20, 40, 80}
	s.Fig5PGMPoints = []int{2, 4}
	s.Fig6Samples = []int{1000, 2000}
	s.Fig7Fracs = []float64{0.5, 1.0}
	s.Fig8Cov = []float64{0.5, 1.0}
	s.LatencyReps = 1
	return s
}

func TestAllExperimentsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	ctx := NewContext(microScale(), t.Logf)
	for _, runner := range Runners() {
		r := runner.Fn(ctx)
		if r.ID == "" || r.Title == "" {
			t.Fatalf("report missing metadata: %+v", r)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("experiment %s produced no rows (notes: %v)", r.ID, r.Notes)
		}
		s := r.String()
		if !strings.Contains(s, r.ID) {
			t.Fatalf("rendering of %s lacks its id", r.ID)
		}
		t.Logf("\n%s", s)
	}
}

func TestContextCaching(t *testing.T) {
	ctx := NewContext(microScale(), nil)
	b := ctx.Census()
	m1, _ := ctx.SAMModel(b, 20)
	m2, _ := ctx.SAMModel(b, 20)
	if m1 != m2 {
		t.Fatal("SAM model not cached")
	}
	db1, _ := ctx.SAMDB(b, 20, 500, true)
	db2, _ := ctx.SAMDB(b, 20, 500, true)
	if db1 != db2 {
		t.Fatal("SAM DB not cached")
	}
	db3, _ := ctx.SAMDB(b, 20, 500, false)
	if db3 == db1 {
		t.Fatal("ablation DB must be a distinct cache entry")
	}
}

func TestJobLightQueriesValid(t *testing.T) {
	ctx := NewContext(microScale(), nil)
	b := ctx.IMDB()
	if b.Test.Len() != 12 {
		t.Fatalf("job-light workload has %d queries", b.Test.Len())
	}
	maxTables := 0
	for i := range b.Test.Queries {
		q := &b.Test.Queries[i].Query
		if err := q.Validate(b.Orig); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if len(q.Tables) > maxTables {
			maxTables = len(q.Tables)
		}
	}
	if maxTables < 3 {
		t.Fatalf("job-light workload lacks multi-way joins (max %d tables)", maxTables)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "LongColumn"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	s := r.String()
	for _, want := range []string{"demo", "LongColumn", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, s)
		}
	}
}

func TestSampleQueriesEvenSpacing(t *testing.T) {
	wl := &workload.Workload{}
	for i := 0; i < 100; i++ {
		wl.Queries = append(wl.Queries, workload.CardQuery{Card: int64(i)})
	}
	got := sampleQueries(wl, 10)
	if len(got) != 10 {
		t.Fatalf("sampled %d", len(got))
	}
	if got[0].Card != 0 || got[9].Card != 90 {
		t.Fatalf("spacing wrong: first %d last %d", got[0].Card, got[9].Card)
	}
	// Requesting more than available returns everything.
	if len(sampleQueries(wl, 500)) != 100 {
		t.Fatal("oversampling broken")
	}
	if len(sampleQueries(wl, 0)) != 100 {
		t.Fatal("zero means all")
	}
}

func TestFmtG(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.2345, "1.23"},
		{123.45, "123.5"},
		{1234567, "1.2e+06"},
		{0.00421, "0.0042"},
		{0, "0.00"},
	}
	for _, c := range cases {
		if got := fmtG(c.v); got != c.want {
			t.Fatalf("fmtG(%v) = %q want %q", c.v, got, c.want)
		}
	}
}

func TestSummaryCells(t *testing.T) {
	s := metrics.Summary{Median: 1, P75: 2, P90: 3, Mean: 4, Max: 5}
	if got := summaryCells(s, false); len(got) != 4 {
		t.Fatalf("cells %v", got)
	}
	if got := summaryCells(s, true); len(got) != 5 || got[4] != "5.00" {
		t.Fatalf("cells with max %v", got)
	}
}

func TestLatenciesOnShape(t *testing.T) {
	ctx := NewContext(microScale(), nil)
	b := ctx.Census()
	lat := latenciesOn(b.Orig, b.Test.Queries[:5], 2)
	if len(lat) != 5 {
		t.Fatalf("latencies %d", len(lat))
	}
	for i, v := range lat {
		if v <= 0 {
			t.Fatalf("latency %d nonpositive: %d", i, v)
		}
	}
}
