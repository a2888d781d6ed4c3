package ar

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/metrics"
	"sam/internal/relation"
	"sam/internal/workload"
)

func TestIdentityDiscretizer(t *testing.T) {
	d := NewIdentity(5)
	if d.Bins() != 5 {
		t.Fatalf("bins = %d", d.Bins())
	}
	for c := int32(0); c < 5; c++ {
		if d.BinOf(c) != int(c) {
			t.Fatalf("BinOf(%d) = %d", c, d.BinOf(c))
		}
		if d.BinWidth(int(c)) != 1 {
			t.Fatal("identity bins must have width 1")
		}
	}
}

func TestIntervalDiscretizer(t *testing.T) {
	// Domain 10, constants {3, 7} → cuts {0,3,4,7,8,10} → 5 bins.
	d := NewInterval(10, []int32{3, 7})
	if d.Bins() != 5 {
		t.Fatalf("bins = %d", d.Bins())
	}
	cases := []struct {
		code int32
		bin  int
	}{{0, 0}, {2, 0}, {3, 1}, {4, 2}, {6, 2}, {7, 3}, {8, 4}, {9, 4}}
	for _, c := range cases {
		if got := d.BinOf(c.code); got != c.bin {
			t.Fatalf("BinOf(%d) = %d want %d", c.code, got, c.bin)
		}
	}
	lo, hi := d.BinRange(2)
	if lo != 4 || hi != 7 {
		t.Fatalf("BinRange(2) = [%d,%d)", lo, hi)
	}
}

func TestDiscretizerSampleIn(t *testing.T) {
	d := NewInterval(10, []int32{3, 7})
	rng := rand.New(rand.NewSource(1))
	seen := map[int32]bool{}
	for i := 0; i < 200; i++ {
		c := d.SampleIn(rng, 2) // covers codes 4..6
		if c < 4 || c > 6 {
			t.Fatalf("SampleIn out of bin: %d", c)
		}
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Fatalf("SampleIn not covering bin: %v", seen)
	}
}

func TestMaskIntoFractions(t *testing.T) {
	d := NewInterval(10, []int32{4}) // cuts {0,4,5,10} → bins [0,4),[4,5),[5,10)
	mask := make([]float64, d.Bins())
	// Predicate ≤ 6: covers codes 0..6 → bin0 full, bin1 full, bin2 2/5.
	ok := d.maskInto(mask, []workload.Predicate{{Op: workload.LE, Code: 6}}, 10)
	if !ok {
		t.Fatal("satisfiable predicate reported empty")
	}
	want := []float64{1, 1, 0.4}
	for i := range want {
		if math.Abs(mask[i]-want[i]) > 1e-12 {
			t.Fatalf("mask = %v want %v", mask, want)
		}
	}
	// Exact boundary: ≤ 4 (constant was 4 → boundary aligned).
	ok = d.maskInto(mask, []workload.Predicate{{Op: workload.LE, Code: 4}}, 10)
	if !ok || mask[0] != 1 || mask[1] != 1 || mask[2] != 0 {
		t.Fatalf("aligned mask = %v", mask)
	}
}

func TestMaskIntoINAndConjunction(t *testing.T) {
	d := NewIdentity(8)
	mask := make([]float64, 8)
	ok := d.maskInto(mask, []workload.Predicate{
		{Op: workload.IN, Codes: []int32{1, 3, 5, 3}}, // duplicate 3
		{Op: workload.GE, Code: 3},
	}, 8)
	if !ok {
		t.Fatal("unexpected empty")
	}
	for b, v := range mask {
		want := 0.0
		if b == 3 || b == 5 {
			want = 1
		}
		if v != want {
			t.Fatalf("mask[%d] = %v", b, v)
		}
	}
	// Contradiction → empty.
	if d.maskInto(mask, []workload.Predicate{
		{Op: workload.LE, Code: 2}, {Op: workload.GE, Code: 5},
	}, 8) {
		t.Fatal("contradiction reported satisfiable")
	}
}

// twoColTable builds a single-relation schema with two correlated columns.
func twoColTable(rng *rand.Rand, rows int) *relation.Schema {
	c1 := relation.NewColumn("x", relation.Categorical, 4)
	c2 := relation.NewColumn("y", relation.Categorical, 4)
	for i := 0; i < rows; i++ {
		v := int32(rng.Intn(4))
		c1.Append(v)
		if rng.Float64() < 0.8 {
			c2.Append(v) // y strongly tracks x
		} else {
			c2.Append(int32(rng.Intn(4)))
		}
	}
	return relation.MustSchema(relation.NewTable("t", c1, c2))
}

func TestCompileSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := twoColTable(rng, 100)
	l := join.NewLayout(s)
	wl := &workload.Workload{Queries: []workload.CardQuery{
		{Query: workload.Query{Tables: []string{"t"}, Preds: []workload.Predicate{
			{Table: "t", Column: "x", Op: workload.LE, Code: 1},
		}}, Card: 10},
	}}
	m := NewModel(l, wl.Queries, 100, DefaultConfig())
	spec, err := m.Compile(&wl.Queries[0].Query)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Masks[0] == nil || spec.Masks[1] != nil {
		t.Fatalf("masks: %v", spec.Masks)
	}
	for _, dw := range spec.Downweight {
		if dw {
			t.Fatal("single-table query must not downweight")
		}
	}
}

func TestTrainSingleRelationFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := twoColTable(rng, 400)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 80, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}

	cfg := DefaultTrainConfig()
	cfg.Epochs = 60
	cfg.BatchSize = 40
	cfg.Model.Hidden = 32
	cfg.Seed = 7
	m, err := Train(l, wl, float64(s.Tables[0].NumRows()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var qerrs []float64
	for qi := range wl.Queries {
		est, err := m.Estimate(SplitSeed(11, qi), &wl.Queries[qi].Query, 8)
		if err != nil {
			t.Fatal(err)
		}
		qerrs = append(qerrs, metrics.QError(est, float64(wl.Queries[qi].Card)))
	}
	sort.Float64s(qerrs)
	median := qerrs[len(qerrs)/2]
	if median > 3.0 {
		t.Fatalf("median training Q-Error %.2f too high", median)
	}
}

func TestSampleFOJMatchesMarginals(t *testing.T) {
	// Train on a strongly skewed single column and verify ancestral samples
	// reproduce the marginal.
	c := relation.NewColumn("x", relation.Categorical, 3)
	for i := 0; i < 300; i++ {
		switch {
		case i < 240:
			c.Append(0)
		case i < 290:
			c.Append(1)
		default:
			c.Append(2)
		}
	}
	s := relation.MustSchema(relation.NewTable("t", c))
	l := join.NewLayout(s)
	rng := rand.New(rand.NewSource(5))
	queries := []workload.Query{
		{Tables: []string{"t"}, Preds: []workload.Predicate{{Table: "t", Column: "x", Op: workload.EQ, Code: 0}}},
		{Tables: []string{"t"}, Preds: []workload.Predicate{{Table: "t", Column: "x", Op: workload.EQ, Code: 1}}},
		{Tables: []string{"t"}, Preds: []workload.Predicate{{Table: "t", Column: "x", Op: workload.EQ, Code: 2}}},
		{Tables: []string{"t"}, Preds: []workload.Predicate{{Table: "t", Column: "x", Op: workload.LE, Code: 1}}},
	}
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 300
	cfg.BatchSize = 4
	cfg.LR = 0.03
	cfg.Model.Hidden = 16
	cfg.Model.HiddenLayers = 1
	m, err := Train(l, wl, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler := m.NewBatchSampler(1)
	rngs := []*rand.Rand{rng}
	dst := make([]int32, 1)
	counts := [3]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		sampler.SampleFOJBatch(rngs, dst)
		counts[dst[0]]++
	}
	p0 := float64(counts[0]) / n
	if math.Abs(p0-0.8) > 0.1 {
		t.Fatalf("P(x=0) sampled %.3f want ≈0.8 (counts %v)", p0, counts)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := twoColTable(rng, 50)
	l := join.NewLayout(s)
	if _, err := Train(l, &workload.Workload{}, 50, DefaultTrainConfig()); err == nil {
		t.Fatal("empty workload accepted")
	}
	wl := &workload.Workload{Queries: []workload.CardQuery{{
		Query: workload.Query{Tables: []string{"t"}, Preds: []workload.Predicate{
			{Table: "t", Column: "x", Op: workload.EQ, Code: 1},
		}}, Card: 5,
	}}}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := Train(l, wl, 50, bad); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestEstimateJoinQueryUsesFanoutScaling(t *testing.T) {
	// Untrained model sanity: estimates for join queries must be finite and
	// positive, and the spec must mark the right downweight columns.
	aCol := relation.NewColumn("a", relation.Categorical, 2)
	for _, v := range []int32{0, 0, 1, 1} {
		aCol.Append(v)
	}
	a := relation.NewTable("A", aCol)
	bCol := relation.NewColumn("b", relation.Categorical, 3)
	b := relation.NewTable("B", bCol)
	b.Parent = "A"
	for _, v := range []int32{0, 1, 2} {
		bCol.Append(v)
	}
	b.FK = []int64{0, 1, 1}
	s := relation.MustSchema(a, b)
	l := join.NewLayout(s)
	wl := []workload.CardQuery{{
		Query: workload.Query{Tables: []string{"A"}, Preds: []workload.Predicate{
			{Table: "A", Column: "a", Op: workload.EQ, Code: 0},
		}}, Card: 2,
	}}
	m := NewModel(l, wl, float64(engine.FOJSize(s)), DefaultConfig())

	q := workload.Query{Tables: []string{"A"}, Preds: []workload.Predicate{
		{Table: "A", Column: "a", Op: workload.EQ, Code: 0},
	}}
	spec, err := m.Compile(&q)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := l.FanoutIndex("B")
	if !spec.Downweight[fb] {
		t.Fatal("root-relation query must downweight F_B")
	}
	est := m.EstimateSpec(9, spec, 16)
	if est <= 0 || math.IsNaN(est) || math.IsInf(est, 0) {
		t.Fatalf("estimate %v", est)
	}
}

func TestTrainedJoinModelEstimates(t *testing.T) {
	// End-to-end on a 2-table schema: train on labeled join+single queries,
	// check median Q-Error on the training set is sane.
	rng := rand.New(rand.NewSource(10))
	aCol := relation.NewColumn("a", relation.Categorical, 3)
	a := relation.NewTable("A", aCol)
	bCol := relation.NewColumn("b", relation.Categorical, 3)
	b := relation.NewTable("B", bCol)
	b.Parent = "A"
	for i := 0; i < 60; i++ {
		aCol.Append(int32(rng.Intn(3)))
	}
	for i := 0; i < 150; i++ {
		parent := rng.Intn(60)
		// b correlates with parent's a
		v := aCol.Data[parent]
		if rng.Float64() < 0.3 {
			v = int32(rng.Intn(3))
		}
		bCol.Append(v)
		b.FK = append(b.FK, int64(parent))
	}
	s := relation.MustSchema(a, b)
	l := join.NewLayout(s)
	queries := workload.GenerateMultiRelation(rng, s, 60, workload.DefaultMultiRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 80
	cfg.BatchSize = 30
	cfg.Model.Hidden = 32
	m, err := Train(l, wl, float64(engine.FOJSize(s)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var qerrs []float64
	for qi := range wl.Queries {
		est, err := m.Estimate(SplitSeed(12, qi), &wl.Queries[qi].Query, 8)
		if err != nil {
			t.Fatal(err)
		}
		qerrs = append(qerrs, metrics.QError(est, float64(wl.Queries[qi].Card)))
	}
	sort.Float64s(qerrs)
	if med := qerrs[len(qerrs)/2]; med > 5 {
		t.Fatalf("median join Q-Error %.2f too high", med)
	}
}
