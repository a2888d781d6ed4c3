// Package core implements SAM's database generation pipeline — the paper's
// primary contribution. From uniform full-outer-join samples (drawn from a
// trained autoregressive model, or from any join.TupleSampler) it derives
// unbiased base-relation samples via inverse probability weighting (Alg. 2),
// scales them to the true relation sizes, assigns join keys with the
// Group-and-Merge algorithm (Alg. 3, extended recursively to multi-level
// trees), and materializes a synthetic database. Single-relation generation
// (Alg. 1) is the degenerate case with no virtual columns.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/ar"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/tensor"
)

// GenOptions controls the generation pass.
type GenOptions struct {
	// Samples is the number of full-outer-join tuples to draw (the paper's
	// k). Zero defaults to the sum of target table sizes.
	Samples int
	// Workers bounds sampling parallelism; 0 = GOMAXPROCS.
	Workers int
	// Batch is the number of sampling lanes each worker advances through
	// the model per forward sweep (batched ancestral sampling); values ≤ 1
	// mean one lane. Each lane owns an rng stream derived from Seed, so
	// output is deterministic for a fixed (Seed, Workers, Batch) triple.
	Batch int
	// Seed drives all sampling randomness.
	Seed int64
	// GroupAndMerge selects join-key assignment: true runs Algorithm 3;
	// false is the paper's "SAM w/o Group-and-Merge" ablation, which
	// assigns foreign keys from pairwise views (Figure 4).
	GroupAndMerge bool

	// Hooks, when non-nil, observes the generation phases: tuples sampled,
	// per-table weight mass before/after scaling, and merge-group counts.
	Hooks *obs.Hooks
	// Span, when non-nil, is the parent trace span; generation records
	// sample/weight/merge child spans under it.
	Span *obs.Span
}

// DefaultGenOptions returns options matching the paper's main configuration.
func DefaultGenOptions(seed int64) GenOptions {
	return GenOptions{Seed: seed, GroupAndMerge: true, Batch: 64}
}

// Generator materializes synthetic databases in the shape of the layout's
// schema.
type Generator struct {
	Layout *join.Layout
	// Disc decodes model bins back to raw column codes; indexed like the
	// layout's columns. Identity discretizers pass codes through.
	Disc []*ar.Discretizer
	// Sizes is the target row count per table (the |T| inputs of Alg. 1/2).
	Sizes map[string]int
}

// NewGenerator validates and builds a generator.
func NewGenerator(layout *join.Layout, disc []*ar.Discretizer, sizes map[string]int) (*Generator, error) {
	if len(disc) != layout.NumCols() {
		return nil, fmt.Errorf("core: %d discretizers for %d model columns", len(disc), layout.NumCols())
	}
	for _, t := range layout.Schema.Tables {
		if sizes[t.Name] <= 0 {
			return nil, fmt.Errorf("core: missing target size for table %s", t.Name)
		}
	}
	return &Generator{Layout: layout, Disc: disc, Sizes: sizes}, nil
}

// FromModel builds a generator for a trained SAM model with the original
// table sizes as targets.
func FromModel(m *ar.Model, sizes map[string]int) (*Generator, error) {
	return NewGenerator(m.Layout, m.Disc, sizes)
}

// ModelSampler returns the per-worker sampler factory Generate expects for
// a trained model: a BatchSampler with max(batch, 1) lanes.
func ModelSampler(m *ar.Model, batch int) func() join.TupleSampler {
	batch = max(batch, 1)
	return func() join.TupleSampler { return m.NewBatchSampler(batch) }
}

// Generate runs the full pipeline. newSampler is called once per worker
// goroutine and must return a sampler that accepts max(opts.Batch, 1)
// lanes per call; a stateless sampler may return itself repeatedly.
func (g *Generator) Generate(newSampler func() join.TupleSampler, opts GenOptions) (*relation.Schema, error) {
	k := opts.Samples
	if k <= 0 {
		for _, t := range g.Layout.Schema.Tables {
			k += g.Sizes[t.Name]
		}
	}
	samples := g.drawSamples(newSampler, k, opts)
	return g.Materialize(samples, opts)
}

// DrawSamples runs the sampling phase on its own: k sanitized FOJ samples,
// flattened lane-major (k × NumCols bin codes), without materializing
// tables. Generate composes it with Materialize; benchmarks and diagnostic
// tools call it directly to measure or inspect the sampler under the real
// worker×lane scheduling.
func (g *Generator) DrawSamples(newSampler func() join.TupleSampler, k int, opts GenOptions) []int32 {
	return g.drawSamples(newSampler, k, opts)
}

// drawSamples draws k FOJ tuples in parallel and sanitizes presence
// consistency.
//
// The output is a pure function of (Seed, Workers, Batch): logical worker w
// covers a fixed tuple range and lane l of worker w always consumes rng
// stream Seed + (w·Batch+l)·7919, with both Workers and Batch resolved
// deterministically from the options (Workers 0 → GOMAXPROCS at entry).
// Physical goroutines are provisioned separately from the shared kernel
// token budget and only affect wall-clock, so a run reproduces bit-for-bit
// however loaded the machine is.
func (g *Generator) drawSamples(newSampler func() join.TupleSampler, k int, opts GenOptions) []int32 {
	span := opts.Span.Child("sample")
	defer span.End()
	start := time.Now()
	ncols := g.Layout.NumCols()
	flat := make([]int32, k*ncols)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	if workers < 1 {
		workers = 1
	}
	batch := max(opts.Batch, 1)
	span.SetAttr("tuples", k)
	span.SetAttr("workers", workers)
	span.SetAttr("batch", batch)

	chunk := (k + workers - 1) / workers
	type task struct{ w, lo, hi int }
	tasks := make([]task, 0, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > k {
			hi = k
		}
		if lo >= hi {
			break
		}
		tasks = append(tasks, task{w, lo, hi})
	}

	// Worker×lane composition: sampling goroutines and the matmul kernels
	// draw from one shared core budget. Each extra sampling goroutine holds
	// a kernel token while it runs, so the per-layer GEMMs inside every
	// sampler see a correspondingly smaller budget and the two levels of
	// parallelism compose instead of oversubscribing the machine. Under a
	// full budget the samplers win all tokens and the kernels run serially
	// inside them — the right split, since worker parallelism has no
	// synchronization per layer.
	phys := 1
	if len(tasks) > 1 {
		phys += tensor.AcquireKernelTokens(len(tasks) - 1)
	}
	if phys > len(tasks) {
		phys = len(tasks)
	}

	// In-flight progress is observer-only: the tracker exists solely when a
	// hook asks for it (nil otherwise — every call below is a nil no-op), a
	// CAS throttle picks one reporting worker at a time, and nothing feeds
	// back into scheduling, so sampling output stays a pure function of
	// (Seed, Workers, Batch).
	var prog *obs.Progress
	if opts.Hooks.WantsGenProgress() {
		prog = obs.NewProgress(int64(k), 2*time.Second)
	}
	const progressInterval = 100 * time.Millisecond
	emitProgress := func(n int) {
		prog.Add(int64(n))
		if prog.ShouldEmit(progressInterval) {
			s := prog.Snapshot()
			opts.Hooks.GenProgress(obs.GenProgress{
				Phase: "sample", Done: int(s.Done), Total: int(s.Total),
				Rate: s.Rate, ETA: s.ETA,
			})
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	run := func() {
		// One rng stream per lane: lane l of worker w always sees the same
		// stream regardless of how tuples land in sweeps. The rngs are
		// allocated once per goroutine and reseeded per logical task.
		rngs := make([]*rand.Rand, batch)
		for l := range rngs {
			rngs[l] = rand.New(rand.NewSource(0))
		}
		s := newSampler()
		for {
			t := int(next.Add(1)) - 1
			if t >= len(tasks) {
				return
			}
			w, lo, hi := tasks[t].w, tasks[t].lo, tasks[t].hi
			for l := range rngs {
				rngs[l].Seed(ar.LaneSeed(opts.Seed, w*batch+l))
			}
			for base := lo; base < hi; base += batch {
				n := min(batch, hi-base)
				s.SampleFOJBatch(rngs[:n], flat[base*ncols:(base+n)*ncols])
				for i := base; i < base+n; i++ {
					g.sanitize(flat[i*ncols : (i+1)*ncols])
				}
				if prog != nil {
					emitProgress(n)
				}
			}
		}
	}
	for p := 1; p < phys; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if phys > 1 {
		tensor.ReleaseKernelTokens(phys - 1)
	}
	span.SetAttr("goroutines", phys)
	if prog != nil {
		// Terminal event so observers always see done == total.
		s := prog.Snapshot()
		opts.Hooks.GenProgress(obs.GenProgress{
			Phase: "sample", Done: int(s.Done), Total: int(s.Total), Rate: s.Rate,
		})
	}
	opts.Hooks.GenPhase(obs.GenPhase{Phase: "sample", Tuples: k, Wall: time.Since(start)})
	return flat
}

// sanitize enforces presence consistency on one sample: a NULL table
// (fanout bin 0) has NULL descendants too, and NULL tables' content bins
// are cleared — the invariant oracle samples satisfy by construction and
// model samples must be projected onto.
func (g *Generator) sanitize(dst []int32) {
	s := g.Layout.Schema
	for _, t := range s.Tables {
		if t.Parent == "" {
			continue
		}
		idx, _ := g.Layout.FanoutIndex(t.Name)
		if pIdx, ok := g.Layout.FanoutIndex(t.Parent); ok && dst[pIdx] == 0 {
			dst[idx] = 0
		}
		if dst[idx] == 0 {
			for _, ci := range g.Layout.ContentColumns(t.Name) {
				dst[ci] = 0
			}
		}
	}
}

// Materialize turns pre-drawn FOJ samples (k × NumCols bin codes, flat) into
// a database. Exposed separately so experiments can reuse one sample set
// across ablations.
func (g *Generator) Materialize(flat []int32, opts GenOptions) (*relation.Schema, error) {
	ncols := g.Layout.NumCols()
	if len(flat) == 0 || len(flat)%ncols != 0 {
		return nil, fmt.Errorf("core: sample buffer of %d codes is not a multiple of %d columns", len(flat), ncols)
	}
	k := len(flat) / ncols
	sample := func(i int) []int32 { return flat[i*ncols : (i+1)*ncols] }

	// Algorithm 2: inverse probability weighting and scaling, per table.
	weightSpan := opts.Span.Child("weight")
	weights := make(map[string][]float64, len(g.Layout.Schema.Tables))
	for _, t := range g.Layout.Schema.Tables {
		tStart := time.Now()
		w := make([]float64, k)
		down := g.Layout.DownweightColumns([]string{t.Name})
		fanIdx, hasFan := g.Layout.FanoutIndex(t.Name)
		var sum float64
		for i := 0; i < k; i++ {
			row := sample(i)
			if hasFan && row[fanIdx] == 0 {
				continue // NULL: no sample derived for this relation
			}
			wi := 1.0
			for _, f := range down {
				wi /= g.Layout.Cols[f].WeightVals[row[f]]
			}
			w[i] = wi
			sum += wi
		}
		if sum == 0 {
			weightSpan.End()
			return nil, fmt.Errorf("core: no full-outer-join sample contains relation %s", t.Name)
		}
		factor := float64(g.Sizes[t.Name]) / sum // scaling step
		for i := range w {
			w[i] *= factor
		}
		weights[t.Name] = w
		weightSpan.SetAttr("mass_"+t.Name, sum)
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "weight", Table: t.Name, Tuples: k,
			MassBefore: sum, MassAfter: float64(g.Sizes[t.Name]),
			Wall: time.Since(tStart),
		})
	}
	weightSpan.End()

	mergeSpan := opts.Span.Child("merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("group_and_merge", opts.GroupAndMerge)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5a17))
	if opts.GroupAndMerge {
		return g.materializeGaM(flat, k, weights, rng, opts)
	}
	return g.materializeViews(flat, k, weights, rng, opts)
}

// binKey serializes selected columns of a sample into a map key.
func binKey(row []int32, cols []int, extra int64) string {
	buf := make([]byte, 0, len(cols)*4+8)
	for _, c := range cols {
		v := row[c]
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for s := 0; s < 64; s += 8 {
		buf = append(buf, byte(extra>>s))
	}
	return string(buf)
}

// systematicCounts allocates total units over nonnegative weights by
// systematic (stratified) resampling: pointers at (j+½)·(Σw/total) on the
// cumulative weight axis, one unit per pointer. Unlike largest-remainder
// rounding — which systematically starves regions whose mass is splintered
// over many small entries (each fraction individually loses to larger
// ones) — systematic allocation is unbiased per region: a run of entries
// with combined weight W receives W·total/Σw units in expectation no
// matter how finely it is divided. Entries with zero weight get zero.
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

// largestRemainderCounts rounds nonnegative weights to integers that sum to
// total (which must be ≤ the ceiling sum). Entries with zero weight stay
// zero.
func largestRemainderCounts(weights []float64, total int) []int {
	type frac struct {
		idx int
		f   float64
	}
	counts := make([]int, len(weights))
	used := 0
	fracs := make([]frac, 0, len(weights))
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		fl := math.Floor(w)
		counts[i] = int(fl)
		used += int(fl)
		fracs = append(fracs, frac{i, w - fl})
	}
	remaining := total - used
	if remaining <= 0 {
		return counts
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].idx < fracs[b].idx
	})
	for i := 0; i < remaining && i < len(fracs); i++ {
		counts[fracs[i].idx]++
	}
	return counts
}

// decodeRow appends the decoded content values of table for one sample.
func (g *Generator) decodeRow(rng *rand.Rand, table *relation.Table, cols []*relation.Column, row []int32) {
	for ci, c := range table.Cols {
		idx := g.Layout.ContentIndex(table.Name, c.Name)
		cols[ci].Append(g.Disc[idx].SampleIn(rng, int(row[idx])))
	}
}

// newEmptyTables clones the schema's table shells (same columns/domains, no
// data).
func (g *Generator) newEmptyTables() map[string]*relation.Table {
	out := make(map[string]*relation.Table, len(g.Layout.Schema.Tables))
	for _, t := range g.Layout.Schema.Tables {
		cols := make([]*relation.Column, len(t.Cols))
		for i, c := range t.Cols {
			nc := relation.NewColumn(c.Name, c.Kind, c.NumValues)
			if c.Vals != nil {
				nc = nc.WithVals(c.Vals)
			}
			cols[i] = nc
		}
		nt := relation.NewTable(t.Name, cols...)
		nt.Parent = t.Parent
		out[t.Name] = nt
	}
	return out
}

func (g *Generator) finishSchema(tables map[string]*relation.Table) (*relation.Schema, error) {
	ordered := make([]*relation.Table, 0, len(tables))
	for _, t := range g.Layout.Schema.Tables {
		ordered = append(ordered, tables[t.Name])
	}
	s, err := relation.NewSchema(ordered...)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
