package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"sam"
	"sam/internal/core"
	"sam/internal/obs"
	"sam/internal/tensor"
)

// Repetition. A run is a sequence of rounds, each repeating set-up,
// training and generation in turn, while the run's budget lasts: at
// least minRounds rounds, at most maxRounds. Inside a round each step
// repeats until it has taken roundStep, at least once. Every timing is the
// median of its repeats, and the repeats of every step spread over the
// whole run, so a burst of load on the host slows a few repeats of each
// step instead of every repeat of one step. On a shared host the speed
// drifts by several percent within seconds, so rounds are kept short (a
// few seconds) to sample each step in many windows of the run.
const (
	minRounds = 3
	maxRounds = 20
	roundStep = 300 * time.Millisecond
)

// inputs is what set-up produces. The program receives only wl (the
// labelled queries), the layout and the target sizes; db is the hidden
// database, kept for the correctness checks alone.
type inputs struct {
	db         *sam.Schema
	wl         *sam.Workload
	layout     *sam.Layout
	population float64
	sizes      map[string]int
}

// fingerprint holds a run's count and quality outputs. For a fixed seed
// and workload every field must repeat bit for bit: across the repeats
// inside a run, between the untraced and traced runs, and across
// processes (see the report mode).
type fingerprint struct {
	WorkloadHash string         `json:"workload_hash"`
	ModelHash    string         `json:"model_hash"`
	DBHash       string         `json:"db_hash"`
	Rows         map[string]int `json:"rows"`
	Dropped      int            `json:"dropped"`
	Steps        int            `json:"ar_steps"`
	Groups       map[string]int `json:"merge_groups,omitempty"`
	ShardBytes   int64          `json:"shard_bytes,omitempty"`
	CSVBytes     int64          `json:"csv_bytes,omitempty"`
	QErrorP50    float64        `json:"qerror_p50"`
	QErrorP90    float64        `json:"qerror_p90"`
}

// runResult is one pipeline run: the repeats of each step, the operation
// counts, and the fingerprint.
type runResult struct {
	setup, train, gen phase
	attempted, failed int
	fp                fingerprint
}

// total is setup_s + train_s + gen_s, each the median of its repeats.
func (r *runResult) total() float64 {
	return median(r.setup.wall) + median(r.train.wall) + median(r.gen.wall)
}

// peakRSS is the peak resident set of the most memory-hungry step, the
// median over that step's repeats. A single process-wide high-water mark
// is one sample of when the garbage collector happened to run; the median
// over repeats that each start from a collected heap is steady.
func (r *runResult) peakRSS() float64 {
	return max(median(r.setup.rss), median(r.train.rss), median(r.gen.rss))
}

// phase collects the repeats of one pipeline step: the wall time in
// seconds and the peak resident set in MiB of each.
type phase struct{ wall, rss []float64 }

// begin readies a repeat: it collects garbage and returns freed memory to
// the OS, so every repeat starts from the same heap, then resets the peak
// resident set so that the repeat's own peak can be read.
func (p *phase) begin() time.Time {
	debug.FreeOSMemory()
	resetPeakRSS()
	return time.Now()
}

// end records the repeat begun at t0.
func (p *phase) end(t0 time.Time) {
	p.wall = append(p.wall, time.Since(t0).Seconds())
	p.rss = append(p.rss, vmHWM())
}

// runPipeline runs one workload end to end: set-up, training and
// generation, in rounds until budget has elapsed since start, checking
// every output. tr is nil in timed runs, which leaves every span and hook
// nil. Streamed output lives under tmp and is deleted pass by pass.
func runPipeline(w *workload, seed int64, start time.Time, budget time.Duration, tr *tracer, tmp string) (*runResult, error) {
	res := &runResult{}
	root := tr.root()
	cfg := trainConfig(w, seed)
	cfg.Hooks = tr.hooks()
	var (
		in    *inputs
		model *sam.Model
		gen   *core.Generator
		out   *sam.Schema // the first pass's database, for Q-Error
	)
	setupStep := func() error {
		t0 := res.setup.begin()
		cur := setup(w, seed, root)
		res.setup.end(t0)
		h := workloadHash(cur.wl)
		if in == nil {
			in, res.fp.WorkloadHash = cur, h
		} else if h != res.fp.WorkloadHash {
			return fmt.Errorf("set-up %d labelled a different workload (%s, first %s)", len(res.setup.wall), h, res.fp.WorkloadHash)
		}
		return nil
	}
	trainStep := func() error {
		tensor.SetMatMulWorkers(trainMatMulWorkers)
		defer tensor.SetMatMulWorkers(procs)
		t0 := res.train.begin()
		sp := root.Child("train")
		cfg.Span = sp
		m, err := sam.Train(in.layout, in.wl, in.population, cfg)
		res.train.end(t0)
		sp.End()
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		h := modelHash(m)
		if model == nil {
			model, res.fp.ModelHash = m, h
		} else if h != res.fp.ModelHash {
			return fmt.Errorf("training %d gave a different model (%s, first %s)", len(res.train.wall), h, res.fp.ModelHash)
		}
		return nil
	}
	genStep := func() error {
		pass := len(res.gen.wall)
		res.attempted++
		var fp fingerprint
		var db *sam.Schema
		var err error
		if w.stream {
			db, fp, err = streamPass(w, gen, model, seed, filepath.Join(tmp, fmt.Sprintf("pass-%d", pass)), pass == 0, &res.gen, tr)
		} else {
			db, fp, err = memoryPass(w, gen, model, seed, &res.gen, tr)
		}
		if err == nil && db != nil {
			err = checkDB(db, in.sizes)
		}
		if err != nil {
			res.failed++
			return fmt.Errorf("generation pass %d: %w", pass, err)
		}
		if pass == 0 {
			out = db
			res.fp.DBHash, res.fp.Rows, res.fp.Groups = fp.DBHash, fp.Rows, fp.Groups
			res.fp.ShardBytes, res.fp.CSVBytes = fp.ShardBytes, fp.CSVBytes
		} else if fp.DBHash != res.fp.DBHash {
			res.failed++
			return fmt.Errorf("generation pass %d produced a different database (%s, first %s)", pass, fp.DBHash, res.fp.DBHash)
		}
		return nil
	}

	// A round starts only if one more round of the last round's length
	// still ends within the budget, so the run ends near its budget.
	var last time.Duration
	for round := 0; round < minRounds || (round < maxRounds && time.Since(start)+last <= budget); round++ {
		t0 := time.Now()
		if err := repeat(setupStep); err != nil {
			return res, err
		}
		if err := repeat(trainStep); err != nil {
			return res, err
		}
		if gen == nil {
			// A query the model cannot compile was dropped from training.
			for i := range in.wl.Queries {
				if _, err := model.Compile(&in.wl.Queries[i].Query); err != nil {
					res.fp.Dropped++
				}
			}
			trained := in.wl.Len() - res.fp.Dropped
			res.fp.Steps = w.epochs * ((trained + w.trainBatch - 1) / w.trainBatch)
			res.attempted += in.wl.Len()
			res.failed += res.fp.Dropped
			var err error
			if gen, err = core.FromModel(model, in.sizes); err != nil {
				return res, fmt.Errorf("generator: %w", err)
			}
		}
		if err := repeat(genStep); err != nil {
			return res, err
		}
		last = time.Since(t0)
	}

	sp := root.Child("eval")
	qerrs := sam.EvalWorkload(out, in.wl.Queries, tr.hooks())
	sp.End()
	s := sam.Summarize(qerrs)
	res.fp.QErrorP50, res.fp.QErrorP90 = s.Median, s.P90
	if tr != nil {
		tr.timeHiddenCards(in)
		tr.timeSampler(w, model, seed)
	}
	return res, nil
}

// repeat runs step until it has taken roundStep, at least once, stopping
// at the first error.
func repeat(step func() error) error {
	t0 := time.Now()
	for {
		if err := step(); err != nil {
			return err
		}
		if time.Since(t0) >= roundStep {
			return nil
		}
	}
}

// setup builds the hidden database, draws the query workload from it,
// labels every query exactly with engine.Label, and builds the layout.
func setup(w *workload, seed int64, parent *obs.Span) *inputs {
	sp := parent.Child("setup")
	defer sp.End()

	d := sp.Child("datagen")
	db := w.build(seed)
	queries := sam.GenerateQueries(seed+1, db, w.queries, sam.DefaultWorkloadOptions(db))
	d.End()

	l := sp.Child("label")
	wl := &sam.Workload{Queries: sam.Label(db, queries)}
	l.End()

	ly := sp.Child("layout")
	defer ly.End()
	in := &inputs{db: db, wl: wl, layout: sam.NewLayout(db), sizes: map[string]int{}}
	for _, t := range db.Tables {
		in.sizes[t.Name] = t.NumRows()
	}
	if db.SingleTable() {
		in.population = float64(db.Tables[0].NumRows())
	} else {
		in.population = float64(sam.FOJSize(db))
	}
	return in
}

// trainConfig pins the training coordinates of a workload.
func trainConfig(w *workload, seed int64) sam.TrainConfig {
	cfg := sam.DefaultTrainConfig()
	cfg.Model.Seed = seed + 2
	cfg.Epochs = w.epochs
	cfg.BatchSize = w.trainBatch
	cfg.Workers = trainWorkers
	cfg.Seed = seed + 2
	return cfg
}

// genOptions pins the generation coordinates of a workload.
func genOptions(w *workload, seed int64) sam.GenOptions {
	opts := sam.DefaultGenOptions(seed + 3)
	opts.Samples = w.samples
	opts.Workers = procs
	opts.Batch = w.genBatch
	return opts
}

// memoryPass runs one in-memory generation (Alg. 1–3), recording it as a
// repeat of p.
func memoryPass(w *workload, gen *core.Generator, m *sam.Model, seed int64, p *phase, tr *tracer) (*sam.Schema, fingerprint, error) {
	opts := genOptions(w, seed)
	t0 := p.begin()
	opts.Hooks, opts.Span = tr.hooks(), tr.root().Child("generate")
	db, err := gen.Generate(core.ModelSampler(m, opts.Batch), opts)
	p.end(t0)
	opts.Span.End()
	if err != nil {
		return nil, fingerprint{}, err
	}
	fp := fingerprint{DBHash: dbHash(db), Rows: rowCounts(db)}
	return db, fp, nil
}

// streamPass runs one sharded streaming generation into dir, recording
// the sampling to shards plus the external Group-and-Merge as a repeat of
// p. The output is
// identified by the hash of its CSV bytes; only the first pass (readBack)
// parses the CSVs back through relation into a database for the checks
// and Q-Error. dir is removed before returning.
func streamPass(w *workload, gen *core.Generator, m *sam.Model, seed int64, dir string, readBack bool,
	p *phase, tr *tracer) (*sam.Schema, fingerprint, error) {
	defer os.RemoveAll(dir)
	opts := core.StreamOptions{GenOptions: genOptions(w, seed), OutDir: dir,
		Shards: w.shards, Partitions: w.partitions}
	t0 := p.begin()
	opts.Hooks, opts.Span = tr.hooks(), tr.root().Child("generate")
	stopHeap := tr.watchHeap()
	set, err := gen.SampleShards(core.ModelSampler(m, opts.Batch), w.samples, opts)
	var res *core.StreamResult
	if err == nil {
		res, err = gen.MaterializeStream(set, opts)
	}
	p.end(t0)
	stopHeap()
	opts.Span.End()
	if err != nil {
		return nil, fingerprint{}, err
	}
	fp := fingerprint{Rows: res.Rows, Groups: res.Groups, ShardBytes: set.Bytes()}
	h := fnv.New64a()
	for _, t := range gen.Layout.Schema.Tables {
		n, err := hashFile(h, res.CSVPaths[t.Name])
		if err != nil {
			return nil, fingerprint{}, err
		}
		fp.CSVBytes += n
	}
	fp.DBHash = fmt.Sprintf("%016x", h.Sum64())
	for _, t := range gen.Layout.Schema.Tables {
		if res.Rows[t.Name] != gen.Sizes[t.Name] {
			return nil, fp, fmt.Errorf("table %s: streamed %d rows, want %d", t.Name, res.Rows[t.Name], gen.Sizes[t.Name])
		}
	}
	if !readBack {
		return nil, fp, nil
	}
	db, err := readCSVs(gen.Layout.Schema, res.CSVPaths)
	return db, fp, err
}

// readCSVs loads streamed CSVs into an empty schema of the layout's shape.
func readCSVs(shape *sam.Schema, paths map[string]string) (*sam.Schema, error) {
	db, err := shape.Spec().EmptySchema()
	if err != nil {
		return nil, err
	}
	for _, t := range db.Tables {
		f, err := os.Open(paths[t.Name])
		if err != nil {
			return nil, err
		}
		err = t.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("read back %s: %w", t.Name, err)
		}
	}
	return db, nil
}

// checkDB verifies a generated database: every table validates (equal
// column lengths, codes in domain), holds exactly its target row count,
// and every foreign key names an existing parent row.
func checkDB(db *sam.Schema, sizes map[string]int) error {
	if err := db.Validate(); err != nil {
		return err
	}
	for _, t := range db.Tables {
		if t.NumRows() != sizes[t.Name] {
			return fmt.Errorf("table %s has %d rows, want %d", t.Name, t.NumRows(), sizes[t.Name])
		}
		if t.Parent == "" {
			continue
		}
		p := db.Table(t.Parent)
		pks := make(map[int64]bool, p.NumRows())
		for i := 0; i < p.NumRows(); i++ {
			pks[p.PK(i)] = true
		}
		for i, fk := range t.FK {
			if !pks[fk] {
				return fmt.Errorf("table %s row %d: foreign key %d has no %s row", t.Name, i, fk, t.Parent)
			}
		}
	}
	return nil
}

func rowCounts(db *sam.Schema) map[string]int {
	out := make(map[string]int, len(db.Tables))
	for _, t := range db.Tables {
		out[t.Name] = t.NumRows()
	}
	return out
}

// writeInts feeds little-endian integers to a hash.
func writeInts[T int32 | int64](h hash.Hash, vs []T) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// dbHash identifies a database by its contents: every column, key and
// foreign key of every table, in schema order.
func dbHash(db *sam.Schema) string {
	h := fnv.New64a()
	for _, t := range db.Tables {
		io.WriteString(h, t.Name)
		for _, c := range t.Cols {
			writeInts(h, c.Data)
		}
		writeInts(h, t.FK)
		writeInts(h, t.PKVals)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// workloadHash identifies a labelled workload by its queries' text and
// cardinalities.
func workloadHash(wl *sam.Workload) string {
	h := fnv.New64a()
	for i := range wl.Queries {
		fmt.Fprintf(h, "%s|%d\n", wl.Queries[i].Query.String(), wl.Queries[i].Card)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// modelHash identifies a trained model by the bits of its parameters.
func modelHash(m *sam.Model) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.Net.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashFile feeds a file's bytes to h and returns its size.
func hashFile(h hash.Hash, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return io.Copy(h, f)
}
