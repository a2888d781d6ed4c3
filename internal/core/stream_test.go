package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// readBack loads the CSVs a streaming run produced into an empty copy of
// the original schema shape.
func readBack(t *testing.T, orig *relation.Schema, res *StreamResult) *relation.Schema {
	t.Helper()
	shell, err := orig.Spec().EmptySchema()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range shell.Tables {
		f, err := os.Open(res.CSVPaths[tab.Name])
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.ReadCSV(f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
	}
	return shell
}

func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardBytesInvariantAcrossWorkers is the golden determinism test for
// the sharded sampler: for a fixed (seed, shard, batch, shard count) the
// shard files are bit-identical whether sampled by 1, 2, or 4 workers.
func TestShardBytesInvariantAcrossWorkers(t *testing.T) {
	orig := datagen.IMDB(11, 120)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	const k = 4000
	newSampler := func() join.TupleSampler { return o }

	var golden [][]byte
	for _, workers := range []int{1, 2, 4} {
		opts := DefaultStreamOptions(42, t.TempDir())
		opts.Shards = 4
		opts.Workers = workers
		set, err := gen.SampleShards(newSampler, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if set.Total != k || len(set.Paths) != 4 {
			t.Fatalf("set total %d shards %d", set.Total, len(set.Paths))
		}
		var cur [][]byte
		for _, p := range set.Paths {
			cur = append(cur, fileBytes(t, p))
		}
		if golden == nil {
			golden = cur
			continue
		}
		for s := range golden {
			if string(golden[s]) != string(cur[s]) {
				t.Fatalf("shard %d bytes differ between workers=1 and workers=%d", s, workers)
			}
		}
	}
}

// TestShardSeedsDivergeAcrossShards guards the seed-splitting: each sample
// draws on its own stream, so different shards of the same run must not
// replay the same rows.
func TestShardSeedsDivergeAcrossShards(t *testing.T) {
	orig := datagen.IMDB(3, 80)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultStreamOptions(7, t.TempDir())
	opts.Shards = 2
	set, err := gen.SampleShards(func() join.TupleSampler { return o }, 2000, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := fileBytes(t, set.Paths[0])
	b := fileBytes(t, set.Paths[1])
	if string(a) == string(b) {
		t.Fatal("shards 0 and 1 drew identical rows: per-sample seed split is broken")
	}
}

// TestGenerateStreamDeepChain runs the full streaming pipeline on the
// TPC-H style two-level chain: FK integrity must hold across both levels
// and 3-way join cardinalities must be preserved, matching the
// bar of TestDeepTreeRecoveryTPCH.
func TestGenerateStreamDeepChain(t *testing.T) {
	orig := datagen.TPCH(3, 300)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultStreamOptions(7, t.TempDir())
	opts.Samples = 40000
	opts.Shards = 3
	opts.Partitions = 8
	res, err := gen.GenerateStream(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 40000 {
		t.Fatalf("consumed %d samples", res.Samples)
	}
	if _, err := os.Stat(filepath.Join(opts.OutDir, "shards")); !os.IsNotExist(err) {
		t.Fatal("shard files not removed after generation")
	}
	if _, err := os.Stat(filepath.Join(opts.OutDir, ".spill")); !os.IsNotExist(err) {
		t.Fatal("spill dir not removed after generation")
	}
	out := readBack(t, orig, res)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}

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
	if li.NumRows() != orig.Table("lineitem").NumRows() {
		t.Fatalf("lineitem rows %d want %d", li.NumRows(), orig.Table("lineitem").NumRows())
	}
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
		t.Fatalf("streamed deep-chain median Q-Error %.2f (%v)", sum.Median, sum)
	}
}

// TestGenerateStreamDeterministicAcrossWorkers pins the generalized
// contract end to end: the full streaming pipeline emits byte-identical
// CSVs for a fixed (seed, shards, batch, partitions) no matter the worker
// count.
func TestGenerateStreamDeterministicAcrossWorkers(t *testing.T) {
	orig := datagen.IMDB(15, 100)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]byte
	for _, workers := range []int{1, 3} {
		opts := DefaultStreamOptions(77, t.TempDir())
		opts.Samples = 6000
		opts.Shards = 4
		opts.Workers = workers
		opts.Partitions = 5
		res, err := gen.GenerateStream(func() join.TupleSampler { return o }, opts)
		if err != nil {
			t.Fatal(err)
		}
		cur := map[string][]byte{}
		for name, path := range res.CSVPaths {
			cur[name] = fileBytes(t, path)
		}
		if golden == nil {
			golden = cur
			continue
		}
		for name := range golden {
			if string(golden[name]) != string(cur[name]) {
				t.Fatalf("table %s CSV differs between workers=1 and workers=%d", name, workers)
			}
		}
	}
}

// TestGenerateMatchesStreamBytes is the determinism matrix: a generated
// database is a function of (seed, samples) alone. Per schema, sampler
// and key policy, every run below yields one CSV hash:
//
//   - SampleShards at Shards {1, 3, auto} × Batch {1, 16, 64} × Workers
//     {1, 4}, alternately into the memory and the directory store. Every
//     set must replay the same samples, and sample i must be what one lane
//     seeded with ar.SplitSeed(seed, i) draws. The merge reads a set only
//     through those samples and its shard layout, so each set is merged
//     (MaterializeStream) at one of Partitions {1, 7, 64} in turn, which
//     puts every shard layout through every partition count;
//   - GenerateStream at the default options;
//   - Generate with Workers = 0 under GOMAXPROCS 1 and 2.
//
// Another seed must give another database. The samplers are the oracle
// and, on the join schemas, an untrained MADE. MADE samples slowly, so it
// runs each (Shards, Batch) pair at one of Workers {1, 4}: which lane or
// goroutine draws a sample is the oracle's part of the matrix, and the
// model's is that a lane draws the same codes at every batch width.
func TestGenerateMatchesStreamBytes(t *testing.T) {
	const (
		seed = 5
		k    = defaultShardRows + 600 // auto: two shards
	)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, sc := range []struct {
		name string
		orig *relation.Schema
	}{
		{"census", datagen.Census(3, 400)},
		{"imdb", datagen.IMDB(9, 150)},
		{"tpch", datagen.TPCH(3, 120)},
	} {
		t.Run(sc.name, func(t *testing.T) {
			l := join.NewLayout(sc.orig)
			o := join.NewOracle(l)
			oracleGen, err := NewGenerator(l, identityDiscs(l), sizesOf(sc.orig))
			if err != nil {
				t.Fatal(err)
			}
			oracle := func(int) func() join.TupleSampler {
				return func() join.TupleSampler { return o }
			}
			t.Run("oracle", func(t *testing.T) { checkDeterminismMatrix(t, sc.orig, oracleGen, oracle, true, seed, k) })
			if len(sc.orig.Tables) == 1 {
				return
			}
			cfg := ar.DefaultConfig()
			cfg.Hidden, cfg.Seed = 16, 9
			m := ar.NewModel(l, nil, float64(sc.orig.Tables[0].NumRows()), cfg)
			modelGen, err := FromModel(m, sizesOf(sc.orig))
			if err != nil {
				t.Fatal(err)
			}
			model := func(batch int) func() join.TupleSampler { return ModelSampler(m, batch) }
			t.Run("made", func(t *testing.T) { checkDeterminismMatrix(t, sc.orig, modelGen, model, false, seed, k) })
		})
	}
}

// streamHash is the FNV-1a hash of a streamed run's CSVs in schema order.
func streamHash(t *testing.T, orig *relation.Schema, res *StreamResult) string {
	t.Helper()
	h := fnv.New64a()
	for _, tab := range orig.Tables {
		h.Write(fileBytes(t, res.CSVPaths[tab.Name]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// schemaHash is the FNV-1a hash of db's tables written as CSV, in order:
// streamHash's figure for the same tables.
func schemaHash(t *testing.T, db *relation.Schema) string {
	t.Helper()
	h := fnv.New64a()
	for _, tab := range db.Tables {
		if err := tab.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkDeterminismMatrix runs TestGenerateMatchesStreamBytes's matrix for
// one generator and sampler factory; without everyWorkers, the b-th batch
// width of {1, 16, 64} samples at Workers {1, 4}[b mod 2] only.
func checkDeterminismMatrix(t *testing.T, orig *relation.Schema, gen *Generator,
	newSampler func(batch int) func() join.TupleSampler, everyWorkers bool, seed int64, k int) {
	want := map[bool]string{} // key policy → CSV hash
	check := func(gam bool, run, h string) {
		t.Helper()
		if want[gam] == "" {
			want[gam] = h
		} else if h != want[gam] {
			t.Fatalf("GroupAndMerge=%v: %s gave CSV hash %s, want %s", gam, run, h, want[gam])
		}
	}
	generate := func(opts GenOptions) string {
		db, err := gen.Generate(newSampler(opts.Batch), opts)
		if err != nil {
			t.Fatal(err)
		}
		return schemaHash(t, db)
	}

	var samples []int32
	run := 0
	for _, shards := range []int{1, 3, 0} {
		for bi, batch := range []int{1, 16, 64} {
			for wi, workers := range []int{1, 4} {
				if !everyWorkers && wi != bi%2 {
					continue
				}
				opts := DefaultStreamOptions(seed, "")
				opts.Shards, opts.Batch, opts.Workers = shards, batch, workers
				if run%2 == 1 {
					opts.OutDir = t.TempDir()
				}
				set, err := gen.SampleShards(newSampler(batch), k, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("Shards=%d Batch=%d Workers=%d dir=%t", shards, batch, workers, opts.OutDir != "")
				flat := readSamples(t, set)
				if samples == nil {
					samples = flat
					checkSampleStreams(t, gen, newSampler(1)(), seed, samples)
				} else if !slices.Equal(flat, samples) {
					t.Fatalf("SampleShards at %s drew other samples than at Shards=1 Batch=1 Workers=1", name)
				}
				opts.Partitions = []int{1, 7, 64}[run%3]
				for _, gam := range []bool{true, false} {
					mo := opts
					mo.OutDir, mo.GroupAndMerge = t.TempDir(), gam
					res, err := gen.MaterializeStream(set, mo)
					if err != nil {
						t.Fatal(err)
					}
					check(gam, fmt.Sprintf("MaterializeStream at %s Partitions=%d", name, mo.Partitions), streamHash(t, orig, res))
				}
				run++
			}
		}
	}
	for _, gam := range []bool{true, false} {
		opts := DefaultStreamOptions(seed, t.TempDir())
		opts.Samples, opts.GroupAndMerge = k, gam
		res, err := gen.GenerateStream(newSampler(opts.Batch), opts)
		if err != nil {
			t.Fatal(err)
		}
		check(gam, "GenerateStream at the default options", streamHash(t, orig, res))
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			opts.Workers = 0
			check(gam, fmt.Sprintf("Generate at GOMAXPROCS=%d Workers=0", procs), generate(opts.GenOptions))
		}
	}
	reseeded := DefaultGenOptions(seed + 1)
	reseeded.Samples = k
	if generate(reseeded) == want[true] {
		t.Fatalf("seeds %d and %d generated the same database", seed, seed+1)
	}
}

// checkSampleStreams checks that sample i of a run is what one lane of
// sampler, seeded with ar.SplitSeed(seed, i), draws: the first and last
// samples, and samples on either side of a shard and a sweep boundary.
func checkSampleStreams(t *testing.T, gen *Generator, sampler join.TupleSampler, seed int64, samples []int32) {
	t.Helper()
	ncols := gen.Layout.NumCols()
	k := len(samples) / ncols
	row := make([]int32, ncols)
	for _, i := range []int{0, 1, 15, 16, k/3 - 1, k / 3, k - 1} {
		sampler.SampleFOJBatch([]*rand.Rand{ar.NewSampleRand(ar.SplitSeed(seed, i))}, row)
		gen.sanitize(row)
		if got := samples[i*ncols : (i+1)*ncols]; !slices.Equal(got, row) {
			t.Fatalf("sample %d is %v; one lane on stream SplitSeed(%d, %d) draws %v", i, got, seed, i, row)
		}
	}
}

// TestGenerationInvariantAcrossWorkers covers every generation entry point
// of the package: Generate, GenerateStream and SampleShards (on both
// stores) give the same bytes for Workers ∈ {0, 1, 2, 3} under
// GOMAXPROCS ∈ {1, 2}. Workers 0 means GOMAXPROCS, so a scheduler that let
// either leak into the output would fail here.
func TestGenerationInvariantAcrossWorkers(t *testing.T) {
	orig := datagen.IMDB(15, 100)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	newSampler := func() join.TupleSampler { return o }
	const k = 40000 // three auto-derived shards
	base := DefaultGenOptions(31)
	base.Samples = k
	base.Batch = 8

	// run returns every output of the four entry points as named byte
	// strings.
	run := func(workers int) map[string]string {
		out := map[string]string{}
		opts := base
		opts.Workers = workers
		db, err := gen.Generate(newSampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range db.Tables {
			var b strings.Builder
			if err := tab.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			out["Generate/"+tab.Name] = b.String()
		}
		sopts := StreamOptions{GenOptions: opts, OutDir: t.TempDir(), Partitions: 4}
		res, err := gen.GenerateStream(newSampler, sopts)
		if err != nil {
			t.Fatal(err)
		}
		for name, path := range res.CSVPaths {
			out["GenerateStream/"+name] = string(fileBytes(t, path))
		}
		for _, dir := range []string{"", t.TempDir()} {
			sopts.OutDir = dir
			set, err := gen.SampleShards(newSampler, k, sopts)
			if err != nil {
				t.Fatal(err)
			}
			flat := readSamples(t, set)
			out[fmt.Sprintf("SampleShards(dir=%t)", dir != "")] = fmt.Sprint(len(set.Paths), flat)
		}
		return out
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var golden map[string]string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 3} {
			cur := run(workers)
			if golden == nil {
				golden = cur
				if golden["SampleShards(dir=true)"] != golden["SampleShards(dir=false)"] {
					t.Fatal("SampleShards drew different samples into the memory and disk stores")
				}
				continue
			}
			for name, want := range golden {
				if cur[name] != want {
					t.Fatalf("%s differs at GOMAXPROCS=%d Workers=%d", name, procs, workers)
				}
			}
		}
	}
}

// TestGenerateStreamViewsMatchGenerate checks that the pairwise-view
// ablation streams: GenerateStream at Partitions = 1 writes, byte for
// byte, the tables Generate returns, and at the default partition count
// every foreign key it writes names a key its parent's CSV holds.
func TestGenerateStreamViewsMatchGenerate(t *testing.T) {
	orig := datagen.IMDB(5, 80)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	newSampler := func() join.TupleSampler { return o }
	opts := DefaultStreamOptions(3, t.TempDir())
	opts.Samples = 2000
	opts.Partitions = 1
	opts.GroupAndMerge = false
	mem, err := gen.Generate(newSampler, opts.GenOptions)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.GenerateStream(newSampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range mem.Tables {
		var b strings.Builder
		if err := tab.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != string(fileBytes(t, res.CSVPaths[tab.Name])) {
			t.Fatalf("table %s: Generate and GenerateStream ablation CSVs differ", tab.Name)
		}
	}
	opts.OutDir, opts.Partitions = t.TempDir(), 0
	if res, err = gen.GenerateStream(newSampler, opts); err != nil {
		t.Fatal(err)
	}
	db := readBack(t, orig, res)
	for _, tab := range db.Tables {
		if tab.Parent == "" {
			continue
		}
		parent := db.Table(tab.Parent)
		pks := map[int64]bool{}
		for i := 0; i < parent.NumRows(); i++ {
			pks[parent.PK(i)] = true
		}
		for i, fk := range tab.FK {
			if !pks[fk] {
				t.Fatalf("table %s row %d: foreign key %d names no %s key", tab.Name, i, fk, tab.Parent)
			}
		}
	}
}

// TestGenerateStreamRemovesShardsOnMergeError checks that a merge failure
// does not leave the sampled shards on disk.
func TestGenerateStreamRemovesShardsOnMergeError(t *testing.T) {
	orig := datagen.IMDB(5, 80)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultStreamOptions(3, t.TempDir())
	opts.Samples = 500
	if _, err := gen.GenerateStream(func() join.TupleSampler { return absentSampler{o, "cast_info"} }, opts); err == nil {
		t.Fatal("merge of samples without any child relation succeeded")
	}
	if _, err := os.Stat(filepath.Join(opts.OutDir, "shards")); !os.IsNotExist(err) {
		t.Fatalf("shard directory left behind after a failed merge (stat: %v)", err)
	}
}

// absentSampler draws oracle samples with one relation (and, through
// sanitize, its descendants) absent from every sample.
type absentSampler struct {
	o     *join.Oracle
	table string
}

func (s absentSampler) SampleFOJBatch(rngs []*rand.Rand, dst []int32) {
	s.o.SampleFOJBatch(rngs, dst)
	n := s.o.L.NumCols()
	fan, _ := s.o.L.FanoutIndex(s.table)
	for i := range rngs {
		dst[i*n+fan] = 0
	}
}

// TestZeroMassRelationFails checks that a relation no sample contains is
// an error naming it once, under one "core:" prefix, from Generate and
// GenerateStream under both key policies: an internal table of the TPC-H chain (its child is absent
// with it, but the merge reaches it first) and a leaf of the IMDB star.
// The failed streamed run leaves none of the CSVs of the tables merged
// before it.
func TestZeroMassRelationFails(t *testing.T) {
	for _, tc := range []struct {
		orig  *relation.Schema
		table string
	}{
		{datagen.TPCH(3, 60), "orders"},
		{datagen.IMDB(5, 80), "movie_keyword"},
	} {
		l := join.NewLayout(tc.orig)
		o := join.NewOracle(l)
		gen, err := NewGenerator(l, identityDiscs(l), sizesOf(tc.orig))
		if err != nil {
			t.Fatal(err)
		}
		newSampler := func() join.TupleSampler { return absentSampler{o, tc.table} }
		want := "core: no full-outer-join sample contains relation " + tc.table
		for _, gam := range []bool{true, false} {
			opts := DefaultStreamOptions(3, t.TempDir())
			opts.Samples = 1000
			opts.GroupAndMerge = gam
			_, err := gen.Generate(newSampler, opts.GenOptions)
			if err == nil || err.Error() != want {
				t.Errorf("Generate, GroupAndMerge=%v, %s absent: got error %v, want %q", gam, tc.table, err, want)
			}
			_, err = gen.GenerateStream(newSampler, opts)
			if err == nil || err.Error() != want {
				t.Errorf("GenerateStream, GroupAndMerge=%v, %s absent: got error %v, want %q", gam, tc.table, err, want)
			}
			if csvs, _ := filepath.Glob(filepath.Join(opts.OutDir, "*.csv")); len(csvs) != 0 {
				t.Errorf("GenerateStream, GroupAndMerge=%v, %s absent: failed run left %v", gam, tc.table, csvs)
			}
		}
	}
}

// TestStreamingSingleTable covers the leaf-root path (no parent, no
// children): a single-relation schema streams to exactly |T| rows.
func TestStreamingSingleTable(t *testing.T) {
	orig := datagen.Census(3, 500)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultStreamOptions(9, t.TempDir())
	opts.Samples = 3000
	res, err := gen.GenerateStream(func() join.TupleSampler { return o }, opts)
	if err != nil {
		t.Fatal(err)
	}
	name := orig.Tables[0].Name
	if res.Rows[name] != orig.Tables[0].NumRows() {
		t.Fatalf("rows %d want %d", res.Rows[name], orig.Tables[0].NumRows())
	}
	out := readBack(t, orig, res)
	if out.Table(name).NumRows() != orig.Tables[0].NumRows() {
		t.Fatal("csv row count mismatch")
	}
}

// TestSysAllocMatchesSystematicCounts pins the streaming allocator (with
// the one-group delay and leftover fold) to the batch reference
// systematicCounts.
func TestSysAllocMatchesSystematicCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = math.Abs(rng.NormFloat64()) * 3
		}
		total := 1 + rng.Intn(100)
		want := systematicCounts(weights, total)

		alloc := newSysAlloc(sumOf(weights), total)
		got := make([]int, n)
		last := -1
		for i, w := range weights {
			got[i] = alloc.next(w)
			if w > 0 {
				last = i
			}
		}
		if last >= 0 {
			got[last] += alloc.leftover()
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: streaming %v batch %v (weights %v total %d)", trial, got, want, weights, total)
			}
		}
	}
}

func sumOf(ws []float64) float64 {
	var s float64
	for _, w := range ws {
		if w > 0 {
			s += w
		}
	}
	return s
}

// TestCellSpans pins the cell walk of an internal table's group: members
// laid end to end over the group's mass, cut into one equal cell per
// allocated key. A member yields one span per cell it overlaps, carrying
// the share of its weight inside the cell, and a piece that is only the
// rounding remainder of a boundary within an ulp of a member's end is
// dropped rather than written as a span.
func TestCellSpans(t *testing.T) {
	type span struct {
		idx  int64
		cell int
		frac float64
	}
	cases := []struct {
		name    string
		weights []float64
		count   int
		want    []span
	}{
		{"one cell per member", []float64{1, 1, 1}, 3, []span{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}}},
		{"member across cells", []float64{1, 2}, 2, []span{{0, 0, 1}, {1, 0, 0.25}, {1, 1, 0.75}}},
		{"one key for the group", []float64{0.5, 2, 1.5}, 1, []span{{0, 0, 1}, {1, 0, 1}, {2, 0, 1}}},
		// 0.1 + 0.2 rounds up to 0.30000000000000004, so the first
		// boundary, mass/3, lands an ulp past 0.1, where member 1 starts:
		// member 1 overlaps cell 0 by about 1e-17, a rounding remainder.
		{"ulp past a boundary", []float64{0.1, 0.2}, 3, []span{{0, 0, 1}, {1, 1, 0.5}, {1, 2, 0.5}}},
		{"more keys than members", []float64{3}, 3, []span{{0, 0, 1.0 / 3}, {0, 1, 1.0 / 3}, {0, 2, 1.0 / 3}}},
	}
	for _, tc := range cases {
		members := make([]memberRec, len(tc.weights))
		var gw float64
		for i, w := range tc.weights {
			members[i] = memberRec{idx: int64(i), w: w}
			gw += w
		}
		var got []span
		err := cellSpans(members, gw, tc.count, func(m memberRec, c int, frac float64) error {
			got = append(got, span{m.idx, c, frac})
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: spans %v, want %v", tc.name, got, tc.want)
		}
		for i, w := range tc.want {
			if g := got[i]; g.idx != w.idx || g.cell != w.cell || math.Abs(g.frac-w.frac) > 1e-12 {
				t.Fatalf("%s: spans %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestStreamRejectsTruncatedShard cuts one shard of a sampled set, once
// mid-row and once by a whole row, on both stores: the merge, scanning on
// two workers, must fail with an error, never panic or merge the short
// set.
func TestStreamRejectsTruncatedShard(t *testing.T) {
	orig := datagen.IMDB(5, 80)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := 4 * l.NumCols()
	for _, store := range []string{"memory", "dir"} {
		for _, cut := range []struct {
			bytes int
			want  string
		}{{2, "mid-row"}, {rowBytes, "replayed"}} {
			opts := DefaultStreamOptions(3, "")
			if store == "dir" {
				opts.OutDir = t.TempDir()
			}
			opts.Shards = 2
			opts.Workers = 2 // the merge scans on two goroutines
			set, err := gen.SampleShards(func() join.TupleSampler { return o }, 600, opts)
			if err != nil {
				t.Fatal(err)
			}
			b := readStream(t, set.st, set.Paths[1])
			putStream(t, set.st, set.Paths[1], b[:len(b)-cut.bytes])
			opts.OutDir = t.TempDir()
			_, err = gen.MaterializeStream(set, opts)
			if err == nil || !strings.Contains(err.Error(), cut.want) {
				t.Fatalf("%s store, shard cut by %d bytes: got error %v, want one mentioning %q", store, cut.bytes, err, cut.want)
			}
		}
	}
}

// TestStreamObserversByteIdentical is the observer-only contract for the
// streaming pipeline's telemetry: attaching the full set of hooks (stream
// passes, progress, a live trace span) must not change a single output
// byte — shard files and CSVs are compared bit-for-bit against an
// unobserved run with the same configuration.
func TestStreamObserversByteIdentical(t *testing.T) {
	orig := datagen.IMDB(13, 90)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var passes []obs.StreamPass
	hooks := obs.Merge(
		&obs.Hooks{
			OnStreamPass: func(p obs.StreamPass) {
				mu.Lock()
				passes = append(passes, p)
				mu.Unlock()
			},
			OnGenProgress: func(obs.GenProgress) {},
			OnGenPhase:    func(obs.GenPhase) {},
		},
		obs.MetricsHooks(obs.NewRegistry()),
	)
	trace := obs.NewTrace("test")

	run := func(h *obs.Hooks, sp *obs.Span) (map[string][]byte, [][]byte) {
		opts := DefaultStreamOptions(29, t.TempDir())
		opts.Shards = 3
		opts.Workers = 2
		opts.Partitions = 5
		opts.Hooks = h
		opts.Span = sp
		set, err := gen.SampleShards(func() join.TupleSampler { return o }, 5000, opts)
		if err != nil {
			t.Fatal(err)
		}
		var shards [][]byte
		for _, p := range set.Paths {
			shards = append(shards, fileBytes(t, p))
		}
		res, err := gen.MaterializeStream(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		csvs := map[string][]byte{}
		for name, path := range res.CSVPaths {
			csvs[name] = fileBytes(t, path)
		}
		return csvs, shards
	}

	plainCSV, plainShards := run(nil, nil)
	obsCSV, obsShards := run(hooks, trace.Root())
	trace.Root().End()

	for name := range plainCSV {
		if string(plainCSV[name]) != string(obsCSV[name]) {
			t.Fatalf("table %s CSV differs with observers attached", name)
		}
	}
	for i := range plainShards {
		if string(plainShards[i]) != string(obsShards[i]) {
			t.Fatalf("shard %d bytes differ with observers attached", i)
		}
	}

	// The event stream itself must be internally consistent: one sampling
	// event per shard summing to the sample count, and one A and one B
	// pass per table with matching record flow, and nothing else.
	byPass := map[string][]obs.StreamPass{}
	for _, p := range passes {
		byPass[p.Pass] = append(byPass[p.Pass], p)
	}
	if len(byPass["shard"]) != 3 {
		t.Fatalf("got %d shard events, want 3", len(byPass["shard"]))
	}
	var shardRows int64
	for _, p := range byPass["shard"] {
		shardRows += p.RecordsOut
	}
	if shardRows != 5000 {
		t.Fatalf("shard events sum to %d rows, want 5000", shardRows)
	}
	var kinds []string
	for kind := range byPass {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	if !slices.Equal(kinds, []string{"A", "B", "shard"}) {
		t.Fatalf("got events of pass kinds %v, want shard, A and B only", kinds)
	}
	nt := len(orig.Tables)
	byTable := map[string]map[string]obs.StreamPass{}
	for _, pass := range []string{"A", "B"} {
		if n := len(byPass[pass]); n != nt {
			t.Fatalf("got %d %s events, want one per table (%d)", n, pass, nt)
		}
		for _, p := range byPass[pass] {
			if byTable[p.Table] == nil {
				byTable[p.Table] = map[string]obs.StreamPass{}
			}
			byTable[p.Table][pass] = p
		}
	}
	for name, pp := range byTable {
		if pp["A"].RecordsOut != pp["B"].RecordsIn {
			t.Fatalf("table %s: pass A emitted %d records but pass B consumed %d",
				name, pp["A"].RecordsOut, pp["B"].RecordsIn)
		}
		if pp["B"].RecordsOut != int64(orig.Table(name).NumRows()) {
			t.Fatalf("table %s: pass B emitted %d rows, want %d",
				name, pp["B"].RecordsOut, orig.Table(name).NumRows())
		}
	}
}

// TestMergeBytesPinned holds the merge's output bytes across commits: FNV
// hashes of every table's CSV, in schema order, for GenerateStream at
// Partitions 1 and 7, and for the same merge at Partitions 7 over a
// memory store and for Generate, each at Workers 1, 2 and 4, on the TPC-H
// chain (an internal non-root table) and the IMDB star (siblings sharing
// a parent's keys), under both key policies. The eight runs share one
// hash per schema and policy: the database depends on (seed, samples)
// alone. The hashes were recorded
// when sampling moved to per-sample streams and the merge to its
// hash-ordered walk. A change to the merge that moves one byte of output
// fails here. At Partitions 7 the partitions and span buckets span
// several spill blocks each (see TestMergeStreamCount), so the memory run
// covers reads across blocks and memory chunks. The hashes are amd64
// figures: other architectures may fuse float multiply-adds.
func TestMergeBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("output bytes are pinned on amd64 only")
	}
	for _, tc := range []struct {
		orig *relation.Schema
		gam  bool
		want string
	}{
		{datagen.TPCH(3, 120), true, "80b930d61599d448"},
		{datagen.IMDB(9, 150), true, "5950228599fb897a"},
		{datagen.TPCH(3, 120), false, "e96963aff2343e4b"},
		{datagen.IMDB(9, 150), false, "b5e890d4884bd76a"},
	} {
		l := join.NewLayout(tc.orig)
		o := join.NewOracle(l)
		gen, err := NewGenerator(l, identityDiscs(l), sizesOf(tc.orig))
		if err != nil {
			t.Fatal(err)
		}
		newSampler := func() join.TupleSampler { return o }
		opts := DefaultGenOptions(5)
		opts.Samples = 20000
		opts.Batch = 16
		opts.GroupAndMerge = tc.gam
		var got []string
		for _, p := range []int{1, 7} {
			res, err := gen.GenerateStream(newSampler, StreamOptions{GenOptions: opts, OutDir: t.TempDir(), Partitions: p})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, streamHash(t, tc.orig, res))
		}
		runs := []string{"GenerateStream P=1", "GenerateStream P=7"}
		mem, err := gen.SampleShards(newSampler, opts.Samples, StreamOptions{GenOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			wo := opts
			wo.Workers = w
			res, err := gen.MaterializeStream(mem, StreamOptions{GenOptions: wo, OutDir: t.TempDir(), Partitions: 7})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, streamHash(t, tc.orig, res))
			db, err := gen.Generate(newSampler, wo)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, schemaHash(t, db))
			runs = append(runs, fmt.Sprintf("memory store P=7 Workers=%d", w), fmt.Sprintf("Generate Workers=%d", w))
		}
		for i, run := range runs {
			if got[i] != tc.want {
				t.Errorf("%s schema, GroupAndMerge=%v, %s: CSV hash %s, want %s", tc.orig.Tables[0].Name, tc.gam, run, got[i], tc.want)
			}
		}
	}
}

// countingStore counts the streams created in a store and the bytes
// written to each, and tracks which of them are still there.
type countingStore struct {
	store
	written map[string]*int64 // stream name → bytes written
	live    map[string]bool
}

type countingWriter struct {
	io.WriteCloser
	n *int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	*w.n += int64(len(p))
	return w.WriteCloser.Write(p)
}

func (s *countingStore) create(name string) (io.WriteCloser, error) {
	w, err := s.store.create(name)
	if err != nil {
		return nil, err
	}
	s.written[name] = new(int64)
	s.live[name] = true
	return countingWriter{w, s.written[name]}, nil
}

func (s *countingStore) remove(name string) {
	delete(s.live, name)
	s.store.remove(name)
}

// TestMergeStreamCount pins the spill layout: the merge of the TPC-H
// chain (customer ← orders ← lineitem) at Partitions = 7 creates one raw
// run per table and one span run per internal table — five streams, not
// one per partition — and removes each of them by the end, on both
// stores. Every run holds more blocks than partitions, so some of its
// partitions span several blocks: the multi-block reads that
// TestMergeBytesPinned's P = 7 hashes cover.
func TestMergeStreamCount(t *testing.T) {
	orig := datagen.TPCH(3, 120)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	const P = 7
	for _, dir := range []string{"", t.TempDir()} {
		opts := StreamOptions{GenOptions: DefaultGenOptions(5), OutDir: dir, Partitions: P}
		opts.Batch = 16
		set, err := gen.SampleShards(func() join.TupleSampler { return o }, 20000, opts)
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingStore{store: set.st, written: map[string]*int64{}, live: map[string]bool{}}
		set.st = cs
		opts.OutDir = t.TempDir()
		if _, err := gen.MaterializeStream(set, opts); err != nil {
			t.Fatal(err)
		}
		var names []string
		for name, n := range cs.written {
			names = append(names, filepath.Base(name))
			if *n <= P*storeBufSize {
				t.Errorf("run %s holds %d bytes, fewer than one block per partition", filepath.Base(name), *n)
			}
		}
		slices.Sort(names)
		want := []string{"customer.raw", "customer.span", "lineitem.raw", "orders.raw", "orders.span"}
		if !slices.Equal(names, want) {
			t.Fatalf("store %q: merge created streams %v, want %v", dir, names, want)
		}
		if len(cs.live) != 0 {
			t.Fatalf("store %q: merge left %d streams behind", dir, len(cs.live))
		}
	}
}
