// Package sam is a from-scratch Go implementation of SAM — database
// generation from query workloads with supervised autoregressive models
// (Yang, Wu, Cong, Zhang & He, SIGMOD 2022).
//
// SAM never reads the target database. It consumes a query workload — a
// set of conjunctive (optionally joining) queries together with their true
// result cardinalities — trains a masked autoregressive model of the
// database's joint distribution with Differentiable Progressive Sampling,
// and then generates a synthetic database that satisfies the input
// cardinality constraints and approximates the hidden data distribution.
// Multi-relation schemas are handled through a single model of the full
// outer join with virtual fanout columns (whose zero bin carries the
// paper's indicator information); base relations are
// recovered with inverse probability weighting, scaling, and the
// Group-and-Merge join-key assignment algorithm.
//
// The minimal flow:
//
//	layout := sam.NewLayout(schemaMeta)                  // column layout (+virtual columns)
//	model, _ := sam.Train(layout, wl, population, cfg)   // learn from (query, cardinality) pairs
//	db, _ := sam.Generate(model, sizes, opts)            // synthesize the database
//
// where population is |T| for a single relation or the full-outer-join
// size for a join schema, and sizes holds the target row count per table.
//
// The subpackages are wired together here so downstream users need only
// this import; the internal packages also expose the evaluation substrate
// (query engine, metrics, dataset generators, and the PGM baseline of
// Arasu et al., SIGMOD'11) used by the benchmark harness in cmd/sambench.
package sam

import (
	"io"
	"math/rand"
	"time"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/metrics"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

// Re-exported data-model types.
type (
	// Schema is a database: tables with tree-structured foreign keys.
	Schema = relation.Schema
	// Table is one relation.
	Table = relation.Table
	// Column is one attribute with a finite discrete domain.
	Column = relation.Column
	// ColumnKind distinguishes categorical from numeric columns.
	ColumnKind = relation.Kind

	// Query is a conjunction of predicates over a connected set of joined
	// relations.
	Query = workload.Query
	// Predicate is a single-column constraint (≤, ≥, =, IN).
	Predicate = workload.Predicate
	// CardQuery is a query plus its observed cardinality.
	CardQuery = workload.CardQuery
	// Workload is an ordered list of cardinality constraints.
	Workload = workload.Workload

	// Layout maps a schema onto the model's full-outer-join column space.
	Layout = join.Layout
	// Model is a trained SAM model.
	Model = ar.Model
	// TrainConfig controls Differentiable Progressive Sampling training.
	TrainConfig = ar.TrainConfig
	// ModelConfig controls model architecture and intervalization.
	ModelConfig = ar.Config
	// GenOptions controls database generation.
	GenOptions = core.GenOptions
	// EvalOptions controls model-side workload evaluation (EvalModel).
	EvalOptions = ar.EvalOptions
	// Summary is a median/p75/p90/mean/max metric aggregate.
	Summary = metrics.Summary

	// Hooks receives pipeline telemetry events; assign one to
	// TrainConfig.Hooks and GenOptions.Hooks (nil disables with zero
	// overhead). The event payloads are TrainEpoch, TrainStep, GenPhase,
	// and EvalQuery.
	Hooks = obs.Hooks
	// TrainEpoch is the per-epoch training telemetry event.
	TrainEpoch = obs.TrainEpoch
	// TrainStep is the per-optimizer-step training telemetry event.
	TrainStep = obs.TrainStep
	// GenPhase is the per-phase generation telemetry event (sample, and
	// one merge event per table).
	GenPhase = obs.GenPhase
	// GenProgress is the throttled in-flight sampling progress event
	// (done/total, rolling tuples/sec, ETA).
	GenProgress = obs.GenProgress
	// EvalQuery is the per-query evaluation telemetry event.
	EvalQuery = obs.EvalQuery
	// Trace is a per-run tree of phase spans (wall time + allocation
	// deltas), serializable as JSONL.
	Trace = obs.Trace
	// Span is one node of a Trace; assign a parent span to
	// TrainConfig.Span / GenOptions.Span to nest pipeline phases under it.
	Span = obs.Span
	// Registry is a concurrent metrics registry (counters, gauges,
	// histograms).
	Registry = obs.Registry
)

// Column kinds.
const (
	Categorical = relation.Categorical
	Numeric     = relation.Numeric
)

// Predicate operators.
const (
	LE = workload.LE
	GE = workload.GE
	EQ = workload.EQ
	IN = workload.IN
)

// NewSchema validates that the tables form an acyclic foreign-key forest
// and returns the schema.
func NewSchema(tables ...*Table) (*Schema, error) { return relation.NewSchema(tables...) }

// NewColumn returns an empty column with the given domain size.
func NewColumn(name string, kind ColumnKind, numValues int) *Column {
	return relation.NewColumn(name, kind, numValues)
}

// NewTable returns a table over the given columns.
func NewTable(name string, cols ...*Column) *Table { return relation.NewTable(name, cols...) }

// NewLayout builds the full-outer-join model layout for a schema: every
// table's content columns plus a fanout virtual column for each
// foreign-key table (its zero bin is the paper's indicator).
func NewLayout(s *Schema) *Layout { return join.NewLayout(s) }

// DefaultTrainConfig returns CPU-scale training defaults (MADE backbone).
func DefaultTrainConfig() TrainConfig { return ar.DefaultTrainConfig() }

// Train fits a SAM model to the workload's cardinality constraints.
// population is |T| for a single-relation schema or the full-outer-join
// size for a join schema (a single aggregate the workload provider knows).
func Train(layout *Layout, wl *Workload, population float64, cfg TrainConfig) (*Model, error) {
	return ar.Train(layout, wl, population, cfg)
}

// DefaultGenOptions returns generation options matching the paper's main
// configuration (Group-and-Merge enabled).
func DefaultGenOptions(seed int64) GenOptions { return core.DefaultGenOptions(seed) }

// Generate synthesizes a database from a trained model. sizes gives the
// target row count per table. Sampling is sharded (one shard per 16Ki
// samples) and each shard draws opts.Batch tuples (at least one) per
// forward sweep (batched ancestral sampling). Workers bounds the
// goroutines of both sampling and the merge (core.GenOptions says how).
// The output is a pure function of (Seed, Samples): Batch, Workers and
// GOMAXPROCS only decide how fast it is drawn.
func Generate(m *Model, sizes map[string]int, opts GenOptions) (*Schema, error) {
	gen, err := core.FromModel(m, sizes)
	if err != nil {
		return nil, err
	}
	return gen.Generate(core.ModelSampler(m, opts.Batch), opts)
}

// Card executes a query against a database and returns its cardinality.
func Card(s *Schema, q *Query) int64 { return engine.Card(s, q) }

// Estimate predicts a query's cardinality from a trained model via
// progressive sampling with the given Monte-Carlo sample count — the
// model's view of the hidden database, usable before any generation. The
// estimate is a function of (m, seed, q, samples).
func Estimate(m *Model, seed int64, q *Query, samples int) (float64, error) {
	return m.Estimate(seed, q, samples)
}

// WorkloadStats summarizes a workload's shape (filters, joins, operators,
// zero-result constraints).
func WorkloadStats(wl *Workload) workload.Stats { return workload.ComputeStats(wl) }

// FOJSize returns the full-outer-join size of a database — the population
// constant Train needs for join schemas.
func FOJSize(s *Schema) int64 { return engine.FOJSize(s) }

// Label evaluates queries against a database, producing the cardinality
// constraints SAM trains from.
func Label(s *Schema, queries []Query) []CardQuery { return engine.Label(s, queries) }

// QError returns max(est/truth, truth/est), both floored at 1.
func QError(est, truth float64) float64 { return metrics.QError(est, truth) }

// Summarize aggregates a metric sample (median/p75/p90/mean/max).
func Summarize(xs []float64) Summary { return metrics.Summarize(xs) }

// CrossEntropyBits measures how close a generated relation is to the
// original (Eq. 1 of the paper), in bits.
func CrossEntropyBits(orig, gen *Table) float64 { return metrics.CrossEntropyBits(orig, gen) }

// TimedCard executes a query and returns its cardinality with the
// wall-clock latency — the signal behind the paper's performance-deviation
// experiments.
func TimedCard(s *Schema, q *Query) (int64, time.Duration) { return engine.TimedCard(s, q) }

// WorkloadOptions controls query-workload generation (§5.1 of the paper).
type WorkloadOptions = workload.GenOptions

// DefaultWorkloadOptions returns the paper's single-relation workload
// settings (1–5 filters, ops {≤, =, ≥}, literals from sampled tuples) for
// single-table schemas and the MSCN-style settings (0–2 joins) otherwise.
func DefaultWorkloadOptions(s *Schema) WorkloadOptions {
	if s.SingleTable() {
		return workload.DefaultSingleRelationOptions()
	}
	return workload.DefaultMultiRelationOptions()
}

// GenerateQueries draws a random query workload against s following the
// paper's generation procedure.
func GenerateQueries(seed int64, s *Schema, n int, opts WorkloadOptions) []Query {
	rng := rand.New(rand.NewSource(seed))
	if s.SingleTable() {
		return workload.GenerateSingleRelation(rng, s.Tables[0], n, opts)
	}
	return workload.GenerateMultiRelation(rng, s, n, opts)
}

// NewTrace starts a run trace whose Root span can be handed to
// TrainConfig.Span and GenOptions.Span; after Root().End(), WriteJSONL
// serializes the phase tree.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// MetricsHooks returns hooks that feed every telemetry event into the
// registry (train_loss, train_step_seconds, labeled gen_tuples_total and
// gen_weight_mass families, eval_qerror, ...).
func MetricsHooks(r *Registry) *Hooks { return obs.MetricsHooks(r) }

// ProgressHooks returns hooks that stream human-readable progress (one
// line per epoch with an ETA, throttled sampling progress with tuples/sec,
// generation phases, and batches of evaluated queries) to w.
func ProgressHooks(w io.Writer) *Hooks { return obs.ProgressHooks(w) }

// MergeHooks fans every event out to all given hooks (nils are skipped).
func MergeHooks(hooks ...*Hooks) *Hooks { return obs.Merge(hooks...) }

// EventHooks returns hooks that hand every pipeline event to add under its
// kind tag ("train_epoch", "gen_phase", "eval_query", ...) with its
// payload struct.
func EventHooks(add func(kind string, data any)) *Hooks { return obs.EventHooks(add) }

// ServeDebug starts an HTTP server exposing /debug/pprof and /metrics
// (Prometheus text format, the registry's one view) on addr. It returns
// the bound address (useful with ":0") and a close function that drains
// the server.
func ServeDebug(addr string, r *Registry) (string, func(), error) {
	return obs.ServeDebug(addr, r)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (the same bytes /metrics serves).
func WritePrometheus(w io.Writer, r *Registry) error { return obs.WritePrometheus(w, r) }

// EvalWorkload executes each constraint's query against a database and
// returns the Q-Errors versus the recorded cardinalities, streaming
// per-query telemetry to h (which may be nil).
func EvalWorkload(s *Schema, queries []CardQuery, h *Hooks) []float64 {
	return engine.EvalWorkload(s, queries, h)
}

// DefaultEvalOptions returns the batched model-evaluation defaults.
func DefaultEvalOptions(seed int64) EvalOptions { return ar.DefaultEvalOptions(seed) }

// EvalModel estimates every constraint's cardinality directly from the
// model via (batched) progressive sampling — no generated database — and
// returns the Q-Errors versus the recorded cardinalities. Workers reuse
// warm samplers and every query has its own rng stream, so the result
// does not depend on opts.Workers.
func EvalModel(m *Model, queries []CardQuery, opts EvalOptions, h *Hooks) []float64 {
	return ar.EvalWorkload(m, queries, opts, h)
}

// CensusLike builds the census-like synthetic dataset (14 columns, domains
// 2–123, correlated) used by the benchmark harness; see DESIGN.md for the
// substitution rationale.
func CensusLike(seed int64, rows int) *Schema { return datagen.Census(seed, rows) }

// DMVLike builds the DMV-like synthetic dataset (11 columns, domains
// 2–2101).
func DMVLike(seed int64, rows int) *Schema { return datagen.DMV(seed, rows) }

// IMDBLike builds the JOB-light-style 6-relation star schema with
// heavy-tailed, parent-correlated fanouts.
func IMDBLike(seed int64, titleRows int) *Schema { return datagen.IMDB(seed, titleRows) }

// TPCHLike builds a TPC-H-flavoured depth-2 chain (customer ← orders ←
// lineitem), exercising recursive join-key assignment.
func TPCHLike(seed int64, customers int) *Schema { return datagen.TPCH(seed, customers) }
