package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/pgm"
	"sam/internal/relation"
	"sam/internal/workload"
)

// Bundle holds everything derived from one dataset: the hidden original
// database, its model layout, labeled train/test workloads, and caches of
// trained models and generated databases.
type Bundle struct {
	Name       string
	Orig       *relation.Schema
	Layout     *join.Layout
	Sizes      map[string]int
	Population float64 // |T| or |FOJ|

	Train *workload.Workload
	Test  *workload.Workload

	mu      sync.Mutex
	samMods map[string]*ar.Model
	samDBs  map[string]*relation.Schema
	samTime map[string]time.Duration // training wall time per model key
	genTime map[string]time.Duration
	pgmMods map[string]*pgm.PGM
	pgmDBs  map[string]*relation.Schema
	pgmTime map[string]time.Duration
}

// Context shares scale parameters and dataset bundles across experiments.
type Context struct {
	Scale Scale
	Logf  func(format string, args ...any)

	// Hooks receives telemetry events (per-epoch loss, generation phases,
	// per-query eval stats) from every experiment run through this context;
	// Span is the parent trace span under which training, generation, and
	// evaluation record their phase tree. Both may be nil (telemetry off).
	Hooks *obs.Hooks
	Span  *obs.Span

	mu     sync.Mutex
	census *Bundle
	dmv    *Bundle
	imdb   *Bundle
}

// NewContext returns a context; logf may be nil.
func NewContext(scale Scale, logf func(string, ...any)) *Context {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Context{Scale: scale, Logf: logf}
}

func newBundle(name string, orig *relation.Schema) *Bundle {
	b := &Bundle{
		Name:    name,
		Orig:    orig,
		Layout:  join.NewLayout(orig),
		Sizes:   map[string]int{},
		samMods: map[string]*ar.Model{},
		samDBs:  map[string]*relation.Schema{},
		samTime: map[string]time.Duration{},
		genTime: map[string]time.Duration{},
		pgmMods: map[string]*pgm.PGM{},
		pgmDBs:  map[string]*relation.Schema{},
		pgmTime: map[string]time.Duration{},
	}
	for _, t := range orig.Tables {
		b.Sizes[t.Name] = t.NumRows()
	}
	if orig.SingleTable() {
		b.Population = float64(orig.Tables[0].NumRows())
	} else {
		b.Population = float64(engine.FOJSize(orig))
	}
	return b
}

// Census returns the census-like bundle, building it on first use.
func (c *Context) Census() *Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.census == nil {
		s := c.Scale
		c.Logf("building census dataset (%d rows) and workloads", s.CensusRows)
		orig := datagen.Census(s.Seed, s.CensusRows)
		b := newBundle("census", orig)
		rng := rand.New(rand.NewSource(s.Seed + 101))
		train := workload.GenerateSingleRelation(rng, orig.Tables[0], s.CensusTrainQ, workload.DefaultSingleRelationOptions())
		test := workload.GenerateSingleRelation(rng, orig.Tables[0], s.TestQ, workload.DefaultSingleRelationOptions())
		b.Train = &workload.Workload{Queries: engine.Label(orig, train)}
		b.Test = &workload.Workload{Queries: engine.Label(orig, test)}
		c.census = b
	}
	return c.census
}

// DMV returns the DMV-like bundle.
func (c *Context) DMV() *Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dmv == nil {
		s := c.Scale
		c.Logf("building dmv dataset (%d rows) and workloads", s.DMVRows)
		orig := datagen.DMV(s.Seed+1, s.DMVRows)
		b := newBundle("dmv", orig)
		rng := rand.New(rand.NewSource(s.Seed + 202))
		train := workload.GenerateSingleRelation(rng, orig.Tables[0], s.DMVTrainQ, workload.DefaultSingleRelationOptions())
		test := workload.GenerateSingleRelation(rng, orig.Tables[0], s.TestQ, workload.DefaultSingleRelationOptions())
		b.Train = &workload.Workload{Queries: engine.Label(orig, train)}
		b.Test = &workload.Workload{Queries: engine.Label(orig, test)}
		c.dmv = b
	}
	return c.dmv
}

// IMDB returns the IMDB-like multi-relation bundle; its test workload is
// the JOB-light-style query set.
func (c *Context) IMDB() *Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.imdb == nil {
		s := c.Scale
		c.Logf("building imdb dataset (%d titles) and workloads", s.IMDBTitles)
		orig := datagen.IMDB(s.Seed+2, s.IMDBTitles)
		b := newBundle("imdb", orig)
		rng := rand.New(rand.NewSource(s.Seed + 303))
		train := workload.GenerateMultiRelation(rng, orig, s.IMDBTrainQ, workload.DefaultMultiRelationOptions())
		b.Train = &workload.Workload{Queries: engine.Label(orig, train)}
		// JOB-light queries all have nonempty results; keep drawing until
		// the test set does too.
		var test []workload.CardQuery
		for len(test) < s.JOBLightQ {
			batch := engine.Label(orig, jobLightQueries(rng, orig, s.JOBLightQ))
			for _, cq := range batch {
				if cq.Card > 0 && len(test) < s.JOBLightQ {
					test = append(test, cq)
				}
			}
		}
		b.Test = &workload.Workload{Queries: test}
		c.imdb = b
	}
	return c.imdb
}

// jobLightQueries builds the JOB-light-style test set: joins of title with
// 1–5 of its FK relations (so 2–6 relations per query, like JOB-light's
// up-to-five-way joins) with a handful of predicates.
func jobLightQueries(rng *rand.Rand, s *relation.Schema, n int) []workload.Query {
	var fkTables []string
	for _, t := range s.Tables {
		if t.Parent != "" {
			fkTables = append(fkTables, t.Name)
		}
	}
	queries := make([]workload.Query, 0, n)
	for len(queries) < n {
		m := 1 + rng.Intn(len(fkTables))
		perm := rng.Perm(len(fkTables))[:m]
		q := workload.Query{Tables: []string{"title"}}
		for _, pi := range perm {
			q.Tables = append(q.Tables, fkTables[pi])
		}
		// One predicate on title, and one per joined FK table with
		// probability 1/2 — JOB-light queries are predicate-light.
		title := s.Table("title")
		col := title.Cols[rng.Intn(len(title.Cols))]
		row := rng.Intn(title.NumRows())
		ops := []workload.Op{workload.LE, workload.GE, workload.EQ}
		q.Preds = append(q.Preds, workload.Predicate{
			Table: "title", Column: col.Name,
			Op: ops[rng.Intn(3)], Code: col.Data[row],
		})
		for _, name := range q.Tables[1:] {
			if rng.Float64() < 0.5 {
				continue
			}
			t := s.Table(name)
			col := t.Cols[rng.Intn(len(t.Cols))]
			row := rng.Intn(t.NumRows())
			q.Preds = append(q.Preds, workload.Predicate{
				Table: name, Column: col.Name,
				Op: ops[rng.Intn(3)], Code: col.Data[row],
			})
		}
		queries = append(queries, q)
	}
	return queries
}

// SAMModel trains (or returns the cached) SAM model on the first nQueries
// of the bundle's training workload. nQueries ≤ 0 means the full workload.
func (c *Context) SAMModel(b *Bundle, nQueries int) (*ar.Model, time.Duration) {
	if nQueries <= 0 || nQueries > b.Train.Len() {
		nQueries = b.Train.Len()
	}
	key := fmt.Sprintf("n=%d", nQueries)
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.samMods[key]; ok {
		return m, b.samTime[key]
	}
	s := c.Scale
	cfg := ar.DefaultTrainConfig()
	cfg.Epochs = s.Epochs
	cfg.BatchSize = s.Batch
	cfg.LR = s.LR
	cfg.Model.Hidden = s.Hidden
	cfg.Seed = s.Seed
	cfg.Hooks = c.Hooks
	cfg.Span = c.Span
	// Fixed-time protocol (§5.1): every method gets the same wall-clock
	// budget, so the tiny PGM-feasible workloads (Table 2) buy many more
	// optimizer steps, not fewer. Applied only below one batch so the
	// Figure 5 scaling curve keeps constant per-query work.
	if nQueries < cfg.BatchSize && cfg.Epochs < 400 {
		cfg.Epochs = 400
	}
	c.Logf("training SAM on %s with %d queries", b.Name, nQueries)
	start := time.Now()
	m, err := ar.Train(b.Layout, b.Train.Prefix(nQueries), b.Population, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: SAM training on %s: %v", b.Name, err))
	}
	el := time.Since(start)
	c.Logf("trained SAM on %s (%d queries) in %v", b.Name, nQueries, el.Round(time.Millisecond))
	b.samMods[key] = m
	b.samTime[key] = el
	return m, el
}

// SAMDB generates (or returns the cached) database from the SAM model
// trained on nQueries, using the given FOJ sample budget and
// Group-and-Merge switch.
func (c *Context) SAMDB(b *Bundle, nQueries, samples int, gam bool) (*relation.Schema, time.Duration) {
	if samples <= 0 {
		if b.Orig.SingleTable() {
			samples = b.Sizes[b.Orig.Tables[0].Name]
		} else {
			samples = c.Scale.IMDBSamples
		}
	}
	key := fmt.Sprintf("n=%d,k=%d,gam=%v", nQueries, samples, gam)
	m, _ := c.SAMModel(b, nQueries)
	b.mu.Lock()
	defer b.mu.Unlock()
	if db, ok := b.samDBs[key]; ok {
		return db, b.genTime[key]
	}
	gen, err := core.FromModel(m, b.Sizes)
	if err != nil {
		panic(fmt.Sprintf("experiments: generator on %s: %v", b.Name, err))
	}
	opts := core.DefaultGenOptions(c.Scale.Seed + 7)
	opts.Samples = samples
	opts.GroupAndMerge = gam
	opts.Batch = c.Scale.GenBatch
	opts.Hooks = c.Hooks
	opts.Span = c.Span
	c.Logf("generating %s database from SAM (k=%d, gam=%v, batch=%d)", b.Name, samples, gam, opts.Batch)
	start := time.Now()
	db, err := gen.Generate(core.ModelSampler(m, opts.Batch), opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: generation on %s: %v", b.Name, err))
	}
	el := time.Since(start)
	c.Logf("generated %s from SAM in %v", b.Name, el.Round(time.Millisecond))
	b.samDBs[key] = db
	b.genTime[key] = el
	return db, el
}

// PGMModel trains (or returns the cached) PGM baseline on the first
// nQueries of the training workload.
func (c *Context) PGMModel(b *Bundle, nQueries int) (*pgm.PGM, time.Duration, error) {
	key := fmt.Sprintf("n=%d", nQueries)
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.pgmMods[key]; ok {
		return m, b.pgmTime[key], nil
	}
	wl := b.Train.Prefix(nQueries)
	populations := map[string]float64{}
	for _, ts := range wl.TableSets() {
		if len(ts) > 1 {
			q := workload.Query{Tables: ts}
			populations[pgm.ViewKey(ts)] = float64(engine.Card(b.Orig, &q))
		}
	}
	cfg := pgm.DefaultConfig()
	cfg.Seed = c.Scale.Seed
	c.Logf("training PGM on %s with %d queries", b.Name, nQueries)
	start := time.Now()
	m, err := pgm.Train(b.Orig, wl, b.Sizes, populations, cfg)
	if err != nil {
		return nil, 0, err
	}
	el := time.Since(start)
	c.Logf("trained PGM on %s (%d queries) in %v", b.Name, nQueries, el.Round(time.Millisecond))
	b.pgmMods[key] = m
	b.pgmTime[key] = el
	return m, el, nil
}

// PGMDB generates (or returns the cached) database from the PGM baseline.
func (c *Context) PGMDB(b *Bundle, nQueries int) (*relation.Schema, time.Duration, error) {
	key := fmt.Sprintf("n=%d", nQueries)
	m, _, err := c.PGMModel(b, nQueries)
	if err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if db, ok := b.pgmDBs[key]; ok {
		return db, 0, nil
	}
	c.Logf("generating %s database from PGM", b.Name)
	start := time.Now()
	db, err := m.Generate(c.Scale.Seed + 11)
	if err != nil {
		return nil, 0, err
	}
	el := time.Since(start)
	c.Logf("generated %s from PGM in %v", b.Name, el.Round(time.Millisecond))
	b.pgmDBs[key] = db
	return db, el, nil
}
