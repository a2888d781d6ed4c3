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
	"runtime"

	"sam/internal/ar"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// GenOptions controls the generation pass.
type GenOptions struct {
	// Samples is the number of full-outer-join tuples to draw (the paper's
	// k). Zero defaults to the sum of target table sizes.
	Samples int
	// Workers bounds generation's goroutines; 0 = GOMAXPROCS. Sampling
	// draws up to Workers shards at once. The merge scans each table's
	// samples on up to Workers goroutines and, from two workers on, groups
	// the next spill partition on one goroutine while the calling
	// goroutine emits the current one; at one worker it starts no
	// goroutine. Whatever the count, the calling goroutine alone sums the
	// weight mass, writes every spill run and draws the merge rng, so
	// Workers never changes the output.
	Workers int
	// Batch is the number of sampling lanes advanced through the model per
	// forward sweep (batched ancestral sampling); values ≤ 1 mean one
	// lane. Sample i draws from stream ar.SplitSeed(Seed, i) whichever
	// lane draws it, so Batch changes speed only: the output is a pure
	// function of (Seed, Samples).
	Batch int
	// Seed drives all sampling randomness.
	Seed int64
	// GroupAndMerge selects join-key assignment: true runs Algorithm 3;
	// false is the paper's "SAM w/o Group-and-Merge" ablation, which
	// assigns foreign keys from pairwise views (Figure 4).
	GroupAndMerge bool

	// Hooks, when non-nil, observes the generation phases: tuples sampled,
	// and per table the merge's weight mass, group and row counts.
	Hooks *obs.Hooks
	// Span, when non-nil, is the parent trace span; generation records
	// sample/merge child spans under it.
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

	presence []presenceRule // sanitize's rules, one per non-root table
}

// presenceRule is sanitize's view of one non-root table: its fanout
// column, its parent's (-1 for a root parent, which is always present)
// and its content columns.
type presenceRule struct {
	fan, parentFan int
	content        []int
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
	g := &Generator{Layout: layout, Disc: disc, Sizes: sizes}
	for _, t := range layout.Schema.Tables {
		if t.Parent == "" {
			continue
		}
		r := presenceRule{parentFan: -1, content: layout.ContentColumns(t.Name)}
		r.fan, _ = layout.FanoutIndex(t.Name)
		if pIdx, ok := layout.FanoutIndex(t.Parent); ok {
			r.parentFan = pIdx
		}
		g.presence = append(g.presence, r)
	}
	return g, nil
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

// sampleCount resolves the sample budget k: the requested count, or the
// sum of target table sizes.
func (g *Generator) sampleCount(samples int) int {
	if samples > 0 {
		return samples
	}
	k := 0
	for _, t := range g.Layout.Schema.Tables {
		k += g.Sizes[t.Name]
	}
	return k
}

// memPartitions is Generate's spill fan-out. Each spill partition is
// grouped whole and each span bucket loaded whole, so more partitions
// mean less resident merge state and more chunks for the merge's
// goroutines to share; the output is the same at any count.
const memPartitions = 16

// Generate runs the full pipeline in memory: the sharded sampler and the
// merge engine of GenerateStream, under the key policy opts.GroupAndMerge
// picks, over a memory store, with memPartitions spill partitions. newSampler is
// called once per sampling goroutine and must return a sampler that
// accepts max(opts.Batch, 1) lanes per call; a stateless sampler may
// return itself repeatedly.
//
// The output is a pure function of (Seed, Samples). It equals, byte for
// byte, what GenerateStream writes for the same Seed and Samples at any
// Batch, Workers, Shards and Partitions.
func (g *Generator) Generate(newSampler func() join.TupleSampler, opts GenOptions) (*relation.Schema, error) {
	so := StreamOptions{GenOptions: opts, Partitions: memPartitions}
	set, err := g.SampleShards(newSampler, g.sampleCount(opts.Samples), so)
	if err != nil {
		return nil, err
	}
	return g.materialize(set, so)
}

// sanitize enforces presence consistency on one sample: a NULL table
// (fanout bin 0) has NULL descendants too, and NULL tables' content bins
// are cleared — the invariant oracle samples satisfy by construction and
// model samples must be projected onto.
//
// The rules run in topological order, so a parent is settled before its
// children read its fanout.
func (g *Generator) sanitize(dst []int32) {
	for _, r := range g.presence {
		if r.parentFan >= 0 && dst[r.parentFan] == 0 {
			dst[r.fan] = 0
		}
		if dst[r.fan] == 0 {
			for _, ci := range r.content {
				dst[ci] = 0
			}
		}
	}
}

// workerCount resolves Workers: GOMAXPROCS when unset.
func (o *GenOptions) workerCount() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// materialize merges a shard set into in-memory tables through table
// sinks, under either key policy.
func (g *Generator) materialize(set *ShardSet, opts StreamOptions) (*relation.Schema, error) {
	s, err := g.Layout.Schema.Spec().EmptySchema()
	if err != nil {
		return nil, err
	}
	err = g.merge(set, opts, &StreamResult{}, func(tc *tableCtx) (rowSink, error) {
		return newTableSink(s.Table(tc.t.Name), tc.hasChildren), nil
	})
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// tableSink appends merged rows to an in-memory table: the memory
// backend's counterpart of csvSink.
type tableSink struct {
	t      *relation.Table
	withPK bool
}

func newTableSink(t *relation.Table, withPK bool) *tableSink {
	if withPK {
		t.PKVals = []int64{}
	}
	return &tableSink{t: t, withPK: withPK}
}

func (s *tableSink) WriteRow(pk int64, codes []int32, fk int64) error {
	for ci, c := range s.t.Cols {
		c.Append(codes[ci])
	}
	if s.withPK {
		s.t.PKVals = append(s.t.PKVals, pk)
	}
	if s.t.Parent != "" {
		s.t.FK = append(s.t.FK, fk)
	}
	return nil
}

func (s *tableSink) close() error { return nil }
