package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sam/internal/ar"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/metrics"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

// paperSchema is the Figure-3 style database: A(root) ← B, C.
func paperSchema() *relation.Schema {
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
	cCol := relation.NewColumn("c", relation.Categorical, 2)
	c := relation.NewTable("C", cCol)
	c.Parent = "A"
	for _, v := range []int32{0, 1, 0, 1} {
		cCol.Append(v)
	}
	c.FK = []int64{0, 0, 1, 1}
	return relation.MustSchema(a, b, c)
}

func identityDiscs(l *join.Layout) []*ar.Discretizer {
	disc := make([]*ar.Discretizer, l.NumCols())
	for i, c := range l.Cols {
		disc[i] = ar.NewIdentity(c.Domain)
	}
	return disc
}

func sizesOf(s *relation.Schema) map[string]int {
	out := map[string]int{}
	for _, t := range s.Tables {
		out[t.Name] = t.NumRows()
	}
	return out
}

func TestGeneratorValidation(t *testing.T) {
	s := paperSchema()
	l := join.NewLayout(s)
	if _, err := NewGenerator(l, nil, sizesOf(s)); err == nil {
		t.Fatal("accepted missing discretizers")
	}
	if _, err := NewGenerator(l, identityDiscs(l), map[string]int{"A": 4}); err == nil {
		t.Fatal("accepted missing sizes")
	}
}

// TestExactRecoveryFromEnumeratedFOJ reproduces the paper's worked example:
// with the full set of FOJ tuples and exact weights, Group-and-Merge must
// regenerate a database identical in distribution to the original — on
// both store backends, with one spill partition and with several.
func TestExactRecoveryFromEnumeratedFOJ(t *testing.T) {
	s := paperSchema()
	l := join.NewLayout(s)
	o := join.NewOracle(l)
	flat := o.EnumerateFOJ()
	ncols := l.NumCols()
	k := len(flat) / ncols
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(s))
	if err != nil {
		t.Fatal(err)
	}

	// memory merges the samples as a one-shard memory set, encoded as the
	// sampler encodes them.
	memory := func(t *testing.T, P int) *relation.Schema {
		path := shardPath("shards", 0)
		set := &ShardSet{NCols: ncols, Paths: []string{path}, Total: k, st: memStream(t, path, putI32s(nil, flat))}
		opts := StreamOptions{GenOptions: DefaultGenOptions(1), Partitions: P}
		out, err := gen.materialize(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// disk writes the samples as two shard files and merges them to CSVs
	// through spill files.
	disk := func(t *testing.T, P int) *relation.Schema {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, "shards")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		half := (k / 2) * ncols
		set := &ShardSet{NCols: ncols, Total: k, st: dirStore{}}
		for shard, part := range [][]int32{flat[:half], flat[half:]} {
			path := shardPath(shardDir, shard)
			set.Paths = append(set.Paths, path)
			putStream(t, set.st, path, putI32s(nil, part))
		}
		opts := DefaultStreamOptions(1, dir)
		opts.Partitions = P
		res, err := gen.MaterializeStream(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		return readBack(t, s, res)
	}

	// Every conjunctive query over every table subset must have identical
	// cardinality on both databases.
	queries := []workload.Query{
		{Tables: []string{"A"}, Preds: []workload.Predicate{{Table: "A", Column: "a", Op: workload.EQ, Code: 0}}},
		{Tables: []string{"B"}, Preds: []workload.Predicate{{Table: "B", Column: "b", Op: workload.GE, Code: 1}}},
		{Tables: []string{"C"}, Preds: []workload.Predicate{{Table: "C", Column: "c", Op: workload.EQ, Code: 0}}},
		{Tables: []string{"A", "B"}, Preds: []workload.Predicate{{Table: "A", Column: "a", Op: workload.EQ, Code: 0}}},
		{Tables: []string{"A", "B"}, Preds: []workload.Predicate{{Table: "A", Column: "a", Op: workload.EQ, Code: 1}}},
		{Tables: []string{"A", "C"}, Preds: []workload.Predicate{{Table: "C", Column: "c", Op: workload.EQ, Code: 1}}},
		{Tables: []string{"A", "B", "C"}, Preds: nil},
		{Tables: []string{"A", "B", "C"}, Preds: []workload.Predicate{
			{Table: "A", Column: "a", Op: workload.EQ, Code: 0},
			{Table: "B", Column: "b", Op: workload.LE, Code: 1},
		}},
		{Tables: []string{"A", "B", "C"}, Preds: []workload.Predicate{
			{Table: "C", Column: "c", Op: workload.EQ, Code: 0},
		}},
	}
	for _, backend := range []struct {
		name  string
		merge func(*testing.T, int) *relation.Schema
	}{{"memory", memory}, {"disk", disk}} {
		for _, P := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/P=%d", backend.name, P), func(t *testing.T) {
				out := backend.merge(t, P)
				if err := out.Validate(); err != nil {
					t.Fatal(err)
				}
				for _, tab := range s.Tables {
					if got := out.Table(tab.Name).NumRows(); got != tab.NumRows() {
						t.Fatalf("table %s: %d rows want %d", tab.Name, got, tab.NumRows())
					}
				}
				if got, want := engine.FOJSize(out), engine.FOJSize(s); got != want {
					t.Fatalf("FOJ size %d want %d", got, want)
				}
				for i, q := range queries {
					if got, want := engine.Card(out, &q), engine.Card(s, &q); got != want {
						t.Fatalf("query %d: card %d want %d", i, got, want)
					}
				}
			})
		}
	}
}

func TestOracleSampledRecoveryIMDB(t *testing.T) {
	// Sampling (not enumerating) from the oracle of a realistic star schema
	// and regenerating must approximately preserve join cardinalities.
	orig := datagen.IMDB(11, 300)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions(5)
	opts.Samples = 60000
	out, err := gen.Generate(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf table sizes are exact; the root (pk side) is approximate.
	for _, tab := range orig.Tables {
		got := out.Table(tab.Name).NumRows()
		want := tab.NumRows()
		if tab.Name == "title" {
			if math.Abs(float64(got-want)) > 0.15*float64(want) {
				t.Fatalf("title rows %d want ≈%d", got, want)
			}
		} else if got != want {
			t.Fatalf("table %s: %d rows want %d", tab.Name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(21))
	queries := workload.GenerateMultiRelation(rng, orig, 60, workload.DefaultMultiRelationOptions())
	labeled := engine.Label(orig, queries)
	var qerrs []float64
	for i := range labeled {
		got := engine.Card(out, &labeled[i].Query)
		qerrs = append(qerrs, metrics.QError(float64(got), float64(labeled[i].Card)))
	}
	sum := metrics.Summarize(qerrs)
	if sum.Median > 2.0 {
		t.Fatalf("median Q-Error %.2f too high for oracle-sampled recovery (%v)", sum.Median, sum)
	}
}

func TestGaMBeatsViewAssignmentOnMultiJoin(t *testing.T) {
	// The paper's ablation: on queries joining 3 relations, Group-and-Merge
	// must preserve cross-relation correlation better than view-based
	// assignment.
	orig := datagen.IMDB(13, 250)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	// The same seed draws the same samples for both key assignments.
	opts := DefaultGenOptions(9)
	opts.Samples = 50000
	withGaM, err := gen.Generate(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsNoGaM := opts
	optsNoGaM.GroupAndMerge = false
	withoutGaM, err := gen.Generate(func() join.TupleSampler { return o }, optsNoGaM)
	if err != nil {
		t.Fatal(err)
	}

	// 3-way join queries with correlated predicates.
	rng := rand.New(rand.NewSource(31))
	var gamErrs, viewErrs []float64
	for trial := 0; trial < 80; trial++ {
		q := workload.Query{
			Tables: []string{"title", "cast_info", "movie_keyword"},
			Preds: []workload.Predicate{
				{Table: "title", Column: "kind_id", Op: workload.LE, Code: int32(rng.Intn(7))},
				{Table: "cast_info", Column: "role_id", Op: workload.LE, Code: int32(rng.Intn(11))},
				{Table: "movie_keyword", Column: "keyword_id", Op: workload.LE, Code: int32(rng.Intn(500))},
			},
		}
		truth := float64(engine.Card(orig, &q))
		gamErrs = append(gamErrs, metrics.QError(float64(engine.Card(withGaM, &q)), truth))
		viewErrs = append(viewErrs, metrics.QError(float64(engine.Card(withoutGaM, &q)), truth))
	}
	gamSum := metrics.Summarize(gamErrs)
	viewSum := metrics.Summarize(viewErrs)
	if gamSum.P90 > viewSum.P90*1.25 {
		t.Fatalf("GaM p90 %.2f should not exceed view-based p90 %.2f", gamSum.P90, viewSum.P90)
	}
	if gamSum.Median > 2.5 {
		t.Fatalf("GaM median %.2f too high", gamSum.Median)
	}
}

func TestSingleTableGeneration(t *testing.T) {
	// Algorithm 1: single relation, oracle sampler, k = |T|.
	orig := datagen.Census(17, 3000)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions(3)
	opts.Samples = orig.Tables[0].NumRows()
	out, err := gen.Generate(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tables[0].NumRows() != orig.Tables[0].NumRows() {
		t.Fatalf("rows %d want %d", out.Tables[0].NumRows(), orig.Tables[0].NumRows())
	}
	// Marginal of each column should be close (chi-square-free check on a
	// few coarse buckets).
	for ci, col := range orig.Tables[0].Cols {
		var origLow, genLow int
		mid := int32(col.NumValues / 2)
		for _, v := range col.Data {
			if v < mid {
				origLow++
			}
		}
		for _, v := range out.Tables[0].Cols[ci].Data {
			if v < mid {
				genLow++
			}
		}
		po := float64(origLow) / float64(len(col.Data))
		pg := float64(genLow) / float64(len(out.Tables[0].Cols[ci].Data))
		if math.Abs(po-pg) > 0.06 {
			t.Fatalf("column %s: P(low) orig %.3f gen %.3f", col.Name, po, pg)
		}
	}
}

func TestSanitizeEnforcesIndicatorConsistency(t *testing.T) {
	// A hand-built inconsistent sample (parent NULL, child present) must be
	// projected onto a consistent one.
	rng := rand.New(rand.NewSource(4))
	mk := func(name string, rows int, parent string, parentRows int) *relation.Table {
		col := relation.NewColumn("v", relation.Categorical, 3)
		tt := relation.NewTable(name, col)
		tt.Parent = parent
		for i := 0; i < rows; i++ {
			col.Append(int32(rng.Intn(3)))
			if parent != "" {
				tt.FK = append(tt.FK, int64(rng.Intn(parentRows)))
			}
		}
		return tt
	}
	root := mk("root", 4, "", 0)
	b := mk("b", 6, "root", 4)
	d := mk("d", 8, "b", 6)
	s := relation.MustSchema(root, b, d)
	l := join.NewLayout(s)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(s))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int32, l.NumCols())
	fb, _ := l.FanoutIndex("b")
	fd, _ := l.FanoutIndex("d")
	row[fb] = 0 // b absent
	row[fd] = 3 // d claims presence under an absent parent
	row[l.ContentIndex("d", "v")] = 2
	gen.sanitize(row)
	if row[fd] != 0 {
		t.Fatal("child fanout not cleared when parent is NULL")
	}
	if row[l.ContentIndex("d", "v")] != 0 {
		t.Fatal("NULL content not cleared")
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	orig := datagen.IMDB(15, 100)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions(77)
	opts.Samples = 5000
	opts.Workers = 2
	a, err := gen.Generate(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range a.Tables {
		other := b.Table(tab.Name)
		if tab.NumRows() != other.NumRows() {
			t.Fatalf("table %s row mismatch across identical runs", tab.Name)
		}
		for ci := range tab.Cols {
			for i := range tab.Cols[ci].Data {
				if tab.Cols[ci].Data[i] != other.Cols[ci].Data[i] {
					t.Fatalf("table %s col %d row %d differs", tab.Name, ci, i)
				}
			}
		}
	}
}

// TestGenProgressEvents pins the in-flight progress wiring: a hook that
// wants GenProgress receives monotone done counts, a terminal event with
// done == total, and — because the tracker is observer-only — the drawn
// samples are identical with and without the hook attached.
func TestGenProgressEvents(t *testing.T) {
	orig := datagen.IMDB(21, 100)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{GenOptions: DefaultGenOptions(99), Shards: 3}
	opts.Workers = 2
	const k = 4000
	draw := func() []int32 {
		set, err := gen.SampleShards(func() join.TupleSampler { return o }, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		return readSamples(t, set)
	}

	var mu sync.Mutex
	var events []obs.GenProgress
	opts.Hooks = &obs.Hooks{OnGenProgress: func(p obs.GenProgress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}}
	withHook := draw()

	if len(events) == 0 {
		t.Fatal("no GenProgress events delivered")
	}
	last := events[len(events)-1]
	if last.Done != k || last.Total != k {
		t.Fatalf("terminal event = %d/%d, want %d/%d", last.Done, last.Total, k, k)
	}
	for _, e := range events {
		if e.Phase != "sample" || e.Done < 0 || e.Done > e.Total {
			t.Fatalf("bad progress event: %+v", e)
		}
	}

	opts.Hooks = nil
	plain := draw()
	if len(withHook) != len(plain) {
		t.Fatalf("sample count differs with progress hook: %d vs %d", len(withHook), len(plain))
	}
	for i := range plain {
		if withHook[i] != plain[i] {
			t.Fatalf("sample %d differs with progress hook attached", i)
		}
	}
}

func TestGeneratedSchemasAlwaysValidate(t *testing.T) {
	// Property-style: many random small schemas and sample budgets, both
	// key-assignment paths, always yield structurally valid databases with
	// exact leaf sizes.
	for seed := int64(0); seed < 6; seed++ {
		orig := datagen.IMDB(40+seed, 60+int(seed)*30)
		l := join.NewLayout(orig)
		o := join.NewOracle(l)
		gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
		if err != nil {
			t.Fatal(err)
		}
		for _, gam := range []bool{true, false} {
			opts := DefaultGenOptions(seed)
			opts.Samples = 2000 + int(seed)*500
			opts.GroupAndMerge = gam
			out, err := gen.Generate(func() join.TupleSampler { return o }, opts)
			if err != nil {
				t.Fatalf("seed %d gam %v: %v", seed, gam, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("seed %d gam %v: %v", seed, gam, err)
			}
			for _, tab := range out.Tables {
				if tab.Parent == "" {
					continue
				}
				parent := out.Table(tab.Parent)
				pkSet := map[int64]bool{}
				for i := 0; i < parent.NumRows(); i++ {
					pkSet[parent.PK(i)] = true
				}
				for _, fk := range tab.FK {
					if !pkSet[fk] {
						t.Fatalf("seed %d gam %v: dangling FK %d in %s", seed, gam, fk, tab.Name)
					}
				}
				if tab.NumRows() != sizesOf(orig)[tab.Name] {
					t.Fatalf("seed %d gam %v: leaf %s has %d rows want %d",
						seed, gam, tab.Name, tab.NumRows(), sizesOf(orig)[tab.Name])
				}
			}
		}
	}
}

func TestGaMKeyCountMatchesTargetExactly(t *testing.T) {
	// After the global systematic allocation, primary-key tables must have
	// exactly |T| rows even under heavy sample splintering.
	orig := datagen.IMDB(77, 400)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1500, 8000, 40000} {
		opts := DefaultGenOptions(3)
		opts.Samples = k
		out, err := gen.Generate(func() join.TupleSampler { return o }, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Table("title").NumRows(); got != 400 {
			t.Fatalf("k=%d: %d titles want 400", k, got)
		}
	}
}

func TestDeepTreeRecoveryTPCH(t *testing.T) {
	// customer ← orders ← lineitem: Group-and-Merge must assign keys
	// recursively down a two-level chain and preserve 3-way join
	// cardinalities from oracle samples.
	orig := datagen.TPCH(3, 400)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions(7)
	opts.Samples = 60000
	out, err := gen.Generate(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mid-chain FKs must reference existing customer keys; leaf FKs must
	// reference existing order keys.
	custKeys := map[int64]bool{}
	cust := out.Table("customer")
	for i := 0; i < cust.NumRows(); i++ {
		custKeys[cust.PK(i)] = true
	}
	ord := out.Table("orders")
	ordKeys := map[int64]bool{}
	for i := 0; i < ord.NumRows(); i++ {
		ordKeys[ord.PK(i)] = true
		if !custKeys[ord.FK[i]] {
			t.Fatalf("orders row %d has dangling customer key", i)
		}
	}
	li := out.Table("lineitem")
	for i := 0; i < li.NumRows(); i++ {
		if !ordKeys[li.FK[i]] {
			t.Fatalf("lineitem row %d has dangling order key", i)
		}
	}

	rng := rand.New(rand.NewSource(41))
	var qerrs []float64
	for trial := 0; trial < 60; trial++ {
		q := workload.Query{
			Tables: []string{"customer", "orders", "lineitem"},
			Preds: []workload.Predicate{
				{Table: "customer", Column: "mktsegment", Op: workload.LE, Code: int32(rng.Intn(5))},
				{Table: "orders", Column: "orderpriority", Op: workload.LE, Code: int32(rng.Intn(5))},
				{Table: "lineitem", Column: "quantity", Op: workload.GE, Code: int32(rng.Intn(50))},
			},
		}
		truth := engine.Card(orig, &q)
		if truth == 0 {
			continue
		}
		got := engine.Card(out, &q)
		qerrs = append(qerrs, metrics.QError(float64(got), float64(truth)))
	}
	sum := metrics.Summarize(qerrs)
	if sum.Median > 2.0 {
		t.Fatalf("deep-chain median Q-Error %.2f (%v)", sum.Median, sum)
	}
}

// readSamples returns every sample of the set, flattened in global row
// order.
func readSamples(t *testing.T, set *ShardSet) []int32 {
	t.Helper()
	var rd shardReader
	if err := rd.open(set); err != nil {
		t.Fatal(err)
	}
	defer rd.close()
	flat := make([]int32, set.Total*set.NCols)
	if err := rd.read(0, flat); err != nil {
		t.Fatal(err)
	}
	return flat
}

// systematicCounts is the reference form of sysAlloc: it allocates total
// units over nonnegative weights by systematic (stratified) resampling,
// with pointers at (j+½)·(Σw/total) on the cumulative weight axis, one
// unit per pointer. Unlike largest-remainder rounding — which
// systematically starves regions whose mass is splintered over many small
// entries (each fraction individually loses to larger ones) — systematic
// allocation is unbiased per region: a run of entries with combined
// weight W receives W·total/Σw units in expectation no matter how finely
// it is divided. Entries with zero weight get zero.
func systematicCounts(weights []float64, total int) []int {
	counts := make([]int, len(weights))
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 || total <= 0 {
		return counts
	}
	spacing := sum / float64(total)
	acc := 0.0
	ptr := 0 // next pointer index, at position (ptr+0.5)*spacing
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		end := acc + w
		for ptr < total && (float64(ptr)+0.5)*spacing < end {
			counts[i]++
			ptr++
		}
		acc = end
	}
	// Float drift can leave the last pointer unassigned; give it to the
	// final positive entry.
	for ptr < total {
		for i := len(weights) - 1; i >= 0; i-- {
			if weights[i] > 0 {
				counts[i]++
				break
			}
		}
		ptr++
	}
	return counts
}

func TestQuickSystematicCountsUnbiasedRegions(t *testing.T) {
	// Systematic allocation must give a contiguous region of entries a
	// total within 1 of its proportional share, no matter how finely the
	// region is split — the property largest-remainder lacks.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		nA := 1 + rng.Intn(50)  // region A entries
		nB := 1 + rng.Intn(500) // region B entries (possibly splintered)
		wA := 1 + rng.Float64()*10
		wB := 1 + rng.Float64()*10
		weights := make([]float64, 0, nA+nB)
		for i := 0; i < nA; i++ {
			weights = append(weights, wA/float64(nA))
		}
		for i := 0; i < nB; i++ {
			weights = append(weights, wB/float64(nB))
		}
		total := 10 + rng.Intn(200)
		counts := systematicCounts(weights, total)
		var gotA, gotTotal int
		for i, c := range counts {
			if c < 0 {
				t.Fatal("negative count")
			}
			if i < nA {
				gotA += c
			}
			gotTotal += c
		}
		if gotTotal != total {
			t.Fatalf("trial %d: total %d want %d", trial, gotTotal, total)
		}
		wantA := wA / (wA + wB) * float64(total)
		if math.Abs(float64(gotA)-wantA) > 1.0+1e-9 {
			t.Fatalf("trial %d: region A got %d want %.2f±1 (splintered into %d entries)",
				trial, gotA, wantA, nA)
		}
	}
}

func TestSystematicCountsEdgeCases(t *testing.T) {
	if c := systematicCounts(nil, 5); len(c) != 0 {
		t.Fatal("nil weights")
	}
	if c := systematicCounts([]float64{0, 0}, 5); c[0] != 0 || c[1] != 0 {
		t.Fatal("all-zero weights must allocate nothing")
	}
	if c := systematicCounts([]float64{1, 2, 3}, 0); c[0]+c[1]+c[2] != 0 {
		t.Fatal("zero total must allocate nothing")
	}
	c := systematicCounts([]float64{0, 5, 0}, 7)
	if c[0] != 0 || c[2] != 0 || c[1] != 7 {
		t.Fatalf("single-entry allocation %v", c)
	}
}

// schemasEqual reports whether two generated schemas are identical
// column-for-column.
func schemasEqual(a, b *relation.Schema) bool {
	for _, tab := range a.Tables {
		other := b.Table(tab.Name)
		if other == nil || tab.NumRows() != other.NumRows() {
			return false
		}
		for ci := range tab.Cols {
			for i := range tab.Cols[ci].Data {
				if tab.Cols[ci].Data[i] != other.Cols[ci].Data[i] {
					return false
				}
			}
		}
	}
	return true
}

// TestGenerateBatchedGolden pins the batched pipeline's determinism
// contract: a model-backed batched Generate is bit-identical across runs
// for a fixed (Seed, Samples, Batch), and a different seed produces a
// different database.
func TestGenerateBatchedGolden(t *testing.T) {
	orig := datagen.IMDB(19, 120)
	l := join.NewLayout(orig)
	cfg := ar.DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = 9
	m := ar.NewModel(l, nil, float64(orig.Tables[0].NumRows()), cfg)
	gen, err := FromModel(m, sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions(55)
	opts.Samples = 2000
	opts.Workers = 3
	opts.Batch = 16

	run := func(o GenOptions) *relation.Schema {
		out, err := gen.Generate(ModelSampler(m, o.Batch), o)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run(opts)
	if !schemasEqual(a, run(opts)) {
		t.Fatal("same (seed, samples, batch) produced different databases")
	}
	reseeded := opts
	reseeded.Seed = 56
	if schemasEqual(a, run(reseeded)) {
		t.Fatal("different seed produced an identical database")
	}
}
