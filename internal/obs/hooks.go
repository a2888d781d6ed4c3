package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// TrainEpoch describes one completed training epoch.
type TrainEpoch struct {
	Epoch, Epochs int
	Loss          float64 // mean batch loss over the epoch
	GradNorm      float64 // global gradient norm of the epoch's last step
	Steps         int
	Wall          time.Duration
}

// EpochsPerSec returns the epoch throughput implied by the wall time.
func (e TrainEpoch) EpochsPerSec() float64 {
	if e.Wall <= 0 {
		return 0
	}
	return float64(time.Second) / float64(e.Wall)
}

// TrainStep describes one optimizer step.
type TrainStep struct {
	Step     int // 1-based, cumulative across epochs
	Loss     float64
	GradNorm float64
	Wall     time.Duration
}

// GenPhase describes one generation-phase event: FOJ sampling, or one
// table's merge (weighting, key allocation and row emission).
type GenPhase struct {
	Phase  string // "sample" or "merge"
	Table  string // empty for the sample phase
	Tuples int    // tuples sampled or rows materialized
	Groups int    // merge groups formed (merge phase)
	// Mass is the table's total inverse-probability weight mass, as the
	// merge's first spill pass summed it (merge phase).
	Mass float64
	Wall time.Duration
}

// GenProgress is a rolling in-flight report from a generation phase:
// how many of the phase's units are done, the rolling throughput, and
// the ETA it implies. Emission is throttled at the source (see
// core.SampleShards), so listeners can print every event.
type GenProgress struct {
	Phase       string // "sample" (FOJ tuple draws)
	Done, Total int
	Rate        float64       // units/sec over a rolling window
	ETA         time.Duration // 0 when unknown
}

// StreamPass describes one completed unit of the sharded streaming
// pipeline (core.SampleShards / core.MaterializeStream): a shard's
// sampling leg, or one table's spill passes — A (partition spill) and B
// (per-partition grouping, key allocation and emission).
type StreamPass struct {
	Pass  string // "shard", "A", or "B"
	Table string // empty for shard passes
	Shard int    // shard index when Pass == "shard", else -1
	// RecordsIn / RecordsOut count records consumed and emitted by the
	// pass (samples streamed, spill records written, groups formed, rows
	// emitted — per pass semantics).
	RecordsIn, RecordsOut int64
	// Runs is the number of spill partitions or span buckets the pass
	// wrote: logical parts of the pass's one spill stream, not files.
	Runs int
	// BytesWritten / BytesRead count spill bytes moved by the pass.
	BytesWritten, BytesRead int64
	// BackpressureWait is always zero: shard workers write their own
	// chunks, so no sampler waits on a writer. perfbench still reads it.
	BackpressureWait time.Duration
	Wall             time.Duration
}

// EvalQuery describes one evaluated query.
type EvalQuery struct {
	Card   int64 // cardinality on the evaluated database
	Truth  int64 // recorded true cardinality
	QError float64
	// Table names the queried relation(s) (comma-joined for joins) and
	// Preds counts the query's predicates — the label coordinates of the
	// per-table / per-predicate-count Q-Error families.
	Table string
	Preds int
	Wall  time.Duration
}

// Hooks is the pipeline observer: any subset of the callbacks may be set,
// and a nil *Hooks (or nil callback) disables that signal with no
// measurement cost — the hot paths check WantsX before computing inputs.
type Hooks struct {
	OnTrainEpoch  func(TrainEpoch)
	OnTrainStep   func(TrainStep)
	OnGenPhase    func(GenPhase)
	OnGenProgress func(GenProgress)
	OnStreamPass  func(StreamPass)
	OnEvalQuery   func(EvalQuery)
}

// WantsTrainStep reports whether per-step stats (latency, grad norm) are
// worth computing.
func (h *Hooks) WantsTrainStep() bool { return h != nil && h.OnTrainStep != nil }

// WantsTrainEpoch reports whether per-epoch stats are worth computing.
func (h *Hooks) WantsTrainEpoch() bool { return h != nil && h.OnTrainEpoch != nil }

// TrainEpoch invokes the epoch callback if set.
func (h *Hooks) TrainEpoch(e TrainEpoch) {
	if h != nil && h.OnTrainEpoch != nil {
		h.OnTrainEpoch(e)
	}
}

// TrainStep invokes the step callback if set.
func (h *Hooks) TrainStep(s TrainStep) {
	if h != nil && h.OnTrainStep != nil {
		h.OnTrainStep(s)
	}
}

// GenPhase invokes the generation-phase callback if set.
func (h *Hooks) GenPhase(p GenPhase) {
	if h != nil && h.OnGenPhase != nil {
		h.OnGenPhase(p)
	}
}

// WantsGenProgress reports whether in-flight generation progress (done
// counts, rolling rates, ETA) is worth tracking; the sampling loop skips
// the progress tracker entirely when it returns false.
func (h *Hooks) WantsGenProgress() bool { return h != nil && h.OnGenProgress != nil }

// GenProgress invokes the generation-progress callback if set. Progress
// events may arrive from any worker goroutine, so callbacks must be safe
// for concurrent use (the built-in hooks are).
func (h *Hooks) GenProgress(p GenProgress) {
	if h != nil && h.OnGenProgress != nil {
		h.OnGenProgress(p)
	}
}

// WantsStreamPass reports whether streaming-pass stats (per-pass record
// and byte counts, pass wall times) are worth measuring; the
// streaming pipeline skips its accounting entirely when it returns false,
// keeping the observed and unobserved runs byte-identical either way.
func (h *Hooks) WantsStreamPass() bool { return h != nil && h.OnStreamPass != nil }

// StreamPass invokes the streaming-pass callback if set. Shard events may
// arrive from any sampling goroutine, so callbacks must be safe for
// concurrent use (the built-in hooks are).
func (h *Hooks) StreamPass(p StreamPass) {
	if h != nil && h.OnStreamPass != nil {
		h.OnStreamPass(p)
	}
}

// EvalQuery invokes the evaluation callback if set.
func (h *Hooks) EvalQuery(q EvalQuery) {
	if h != nil && h.OnEvalQuery != nil {
		h.OnEvalQuery(q)
	}
}

// Merge fans every event out to all non-nil hooks. Nil inputs are skipped;
// merging zero or one effective hooks returns that hook directly.
func Merge(hooks ...*Hooks) *Hooks {
	var live []*Hooks
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := &Hooks{}
	out.OnTrainEpoch = func(e TrainEpoch) {
		for _, h := range live {
			h.TrainEpoch(e)
		}
	}
	out.OnTrainStep = func(s TrainStep) {
		for _, h := range live {
			h.TrainStep(s)
		}
	}
	out.OnGenPhase = func(p GenPhase) {
		for _, h := range live {
			h.GenPhase(p)
		}
	}
	out.OnGenProgress = func(p GenProgress) {
		for _, h := range live {
			h.GenProgress(p)
		}
	}
	out.OnStreamPass = func(p StreamPass) {
		for _, h := range live {
			h.StreamPass(p)
		}
	}
	out.OnEvalQuery = func(q EvalQuery) {
		for _, h := range live {
			h.EvalQuery(q)
		}
	}
	return out
}

// MetricsHooks returns hooks that feed the registry: training loss/grad
// gauges, a step-latency histogram, epoch and query counters, per-query
// latency and Q-Error histograms, and labeled generation families —
// per-phase tuple counters and wall-time histograms, per-table merge
// groups, row rates and weight masses, plus rolling sampling throughput.
// Handles for the fixed phase vocabulary are pre-resolved at construction,
// so the per-event hot path (TrainStep, GenProgress) is pure atomics and
// stays at 0 allocs/op even with live labeled metrics (see
// ar.TestTrainStepLabeledMetricsAllocs); per-table children resolve
// lazily because generation phases fire once per table.
func MetricsHooks(r *Registry) *Hooks {
	latBounds := ExpBuckets(1e-6, 2, 32) // 1µs … ~1h, in seconds
	qeBounds := ExpBuckets(1, 1.5, 40)   // Q-Error 1 … ~1e7
	stepLat := r.Histogram("train_step_seconds", latBounds)
	loss := r.Gauge("train_loss")
	gradNorm := r.Gauge("train_grad_norm")
	epochsSec := r.Gauge("train_epochs_per_sec")
	epochs := r.Counter("train_epochs_total")
	steps := r.Counter("train_steps_total")
	evalQ := r.Counter("eval_queries_total")
	evalLat := r.Histogram("eval_query_seconds", latBounds)
	evalQE := r.Histogram("eval_qerror", qeBounds)
	// Q-Error as labeled families: fidelity by relation and by predicate
	// complexity, scrapeable live instead of read off experiment output.
	evalQEByTable := r.HistogramVec("eval_qerror_by_table", qeBounds, "table")
	evalQEByPreds := r.HistogramVec("eval_qerror_by_preds", qeBounds, "preds")

	// Streaming-pipeline families (core.SampleShards / MaterializeStream):
	// per-pass record flow, spill traffic and run counts.
	passSec := r.HistogramVec("stream_pass_seconds", latBounds, "pass")
	passRecs := r.CounterVec("stream_records_total", "pass", "dir")
	spillBytes := r.CounterVec("stream_spill_bytes_total", "pass", "dir")
	spillRuns := r.CounterVec("stream_spill_runs_total", "pass")
	shardRows := r.CounterVec("stream_shard_rows_total", "shard")

	tuples := r.CounterVec("gen_tuples_total", "phase")
	phaseSec := r.HistogramVec("gen_phase_seconds", latBounds, "phase")
	mergeGroups := r.CounterVec("gen_merge_groups_total", "table")
	rowsSec := r.GaugeVec("gen_rows_per_sec", "table")
	weightMass := r.GaugeVec("gen_weight_mass", "table")
	tuplesSec := r.Gauge("gen_tuples_per_sec")
	progress := r.Gauge("gen_progress_ratio")
	// Pre-resolved per-phase handles: the phase vocabulary is fixed.
	sampleTuples := tuples.With("sample")
	mergeTuples := tuples.With("merge")
	samplePhaseSec := phaseSec.With("sample")
	mergePhaseSec := phaseSec.With("merge")
	// Streaming passes are a fixed vocabulary too; pre-resolving keeps the
	// per-pass path on plain atomics (shard labels resolve lazily — one
	// event per shard, not per row).
	type passHandles struct {
		sec     *Histogram
		in, out *Counter
		bw, br  *Counter
		runs    *Counter
	}
	streamPasses := map[string]passHandles{}
	for _, pass := range []string{"shard", "A", "B"} {
		streamPasses[pass] = passHandles{
			sec:  passSec.With(pass),
			in:   passRecs.With(pass, "in"),
			out:  passRecs.With(pass, "out"),
			bw:   spillBytes.With(pass, "written"),
			br:   spillBytes.With(pass, "read"),
			runs: spillRuns.With(pass),
		}
	}

	return &Hooks{
		OnTrainEpoch: func(e TrainEpoch) {
			epochs.Inc()
			loss.Set(e.Loss)
			gradNorm.Set(e.GradNorm)
			epochsSec.Set(e.EpochsPerSec())
		},
		OnTrainStep: func(s TrainStep) {
			steps.Inc()
			stepLat.Observe(s.Wall.Seconds())
		},
		OnGenPhase: func(p GenPhase) {
			tup, sec := tuples.With(p.Phase), phaseSec.With(p.Phase)
			switch p.Phase {
			case "sample":
				tup, sec = sampleTuples, samplePhaseSec
			case "merge":
				tup, sec = mergeTuples, mergePhaseSec
			}
			tup.Add(int64(p.Tuples))
			sec.Observe(p.Wall.Seconds())
			if p.Phase == "merge" {
				mergeGroups.With(p.Table).Add(int64(p.Groups))
				weightMass.With(p.Table).Set(p.Mass)
				if p.Wall > 0 {
					rowsSec.With(p.Table).Set(float64(p.Tuples) / p.Wall.Seconds())
				}
			}
		},
		OnGenProgress: func(p GenProgress) {
			tuplesSec.Set(p.Rate)
			if p.Total > 0 {
				progress.Set(float64(p.Done) / float64(p.Total))
			}
		},
		OnStreamPass: func(p StreamPass) {
			h, ok := streamPasses[p.Pass]
			if !ok {
				h = passHandles{
					sec:  passSec.With(p.Pass),
					in:   passRecs.With(p.Pass, "in"),
					out:  passRecs.With(p.Pass, "out"),
					bw:   spillBytes.With(p.Pass, "written"),
					br:   spillBytes.With(p.Pass, "read"),
					runs: spillRuns.With(p.Pass),
				}
			}
			h.sec.Observe(p.Wall.Seconds())
			h.in.Add(p.RecordsIn)
			h.out.Add(p.RecordsOut)
			h.bw.Add(p.BytesWritten)
			h.br.Add(p.BytesRead)
			h.runs.Add(int64(p.Runs))
			if p.Pass == "shard" {
				//lint:allow veccard shard ids are bounded by the run's configured shard count, well under the registry cap
				shardRows.With(strconv.Itoa(p.Shard)).Add(p.RecordsOut)
			}
		},
		OnEvalQuery: func(q EvalQuery) {
			evalQ.Inc()
			evalLat.Observe(q.Wall.Seconds())
			evalQE.Observe(q.QError)
			if q.Table != "" {
				evalQEByTable.With(q.Table).Observe(q.QError)
			}
			evalQEByPreds.With(PredsBucket(q.Preds)).Observe(q.QError)
		},
	}
}

// PredsBucket coarsens a query's predicate count into the fixed label
// vocabulary of eval_qerror_by_preds ("0", "1", "2", "3+"), keeping the
// family's cardinality bounded however elaborate the workload gets;
// samreport groups run-log queries by the same buckets.
func PredsBucket(n int) string {
	switch {
	case n <= 0:
		return "0"
	case n == 1:
		return "1"
	case n == 2:
		return "2"
	default:
		return "3+"
	}
}

// ProgressHooks returns hooks that print human-readable progress lines —
// one per training epoch (with an ETA over the remaining epochs),
// throttled in-flight sampling progress with rolling tuples/sec and ETA,
// per-phase generation stats with rows/sec, and one line per 100
// evaluated queries with a rolling query rate — to w (typically stderr
// under a CLI -progress flag). The returned hooks serialize their writes,
// so events may arrive from any goroutine.
func ProgressHooks(w io.Writer) *Hooks {
	var mu sync.Mutex
	var evalN int
	var epochWall time.Duration
	evalRate := NewRateMeter(5 * time.Second)
	return &Hooks{
		OnTrainEpoch: func(e TrainEpoch) {
			mu.Lock()
			defer mu.Unlock()
			epochWall += e.Wall
			line := fmt.Sprintf("train: epoch %d/%d  loss=%.4f  grad=%.3g  %.2f epochs/s",
				e.Epoch, e.Epochs, e.Loss, e.GradNorm, e.EpochsPerSec())
			if e.Epoch > 0 && e.Epochs > e.Epoch {
				eta := time.Duration(float64(epochWall) / float64(e.Epoch) * float64(e.Epochs-e.Epoch))
				line += fmt.Sprintf("  ETA %v", eta.Round(100*time.Millisecond))
			}
			fmt.Fprintln(w, line)
		},
		OnGenPhase: func(p GenPhase) {
			mu.Lock()
			defer mu.Unlock()
			switch p.Phase {
			case "sample":
				fmt.Fprintf(w, "generate: sampled %d FOJ tuples in %v\n", p.Tuples, p.Wall.Round(time.Millisecond))
			case "merge":
				rate := ""
				if p.Wall > 0 {
					rate = fmt.Sprintf(" (%.0f rows/s)", float64(p.Tuples)/p.Wall.Seconds())
				}
				fmt.Fprintf(w, "generate: %s merged weight mass %.1f in %d groups -> %d rows in %v%s\n",
					p.Table, p.Mass, p.Groups, p.Tuples, p.Wall.Round(time.Millisecond), rate)
			}
		},
		OnGenProgress: func(p GenProgress) {
			mu.Lock()
			defer mu.Unlock()
			pct := 0.0
			if p.Total > 0 {
				pct = 100 * float64(p.Done) / float64(p.Total)
			}
			line := fmt.Sprintf("generate: %s %d/%d (%.0f%%)  %.0f tuples/s", p.Phase, p.Done, p.Total, pct, p.Rate)
			if p.ETA > 0 {
				line += fmt.Sprintf("  ETA %v", p.ETA.Round(100*time.Millisecond))
			} else if p.Done < p.Total {
				// Zero-rate or not-yet-started windows have no finite
				// estimate; say so instead of printing ±Inf/NaN seconds.
				line += "  ETA unknown"
			}
			fmt.Fprintln(w, line)
		},
		OnStreamPass: func(p StreamPass) {
			mu.Lock()
			defer mu.Unlock()
			switch p.Pass {
			case "shard":
				fmt.Fprintf(w, "stream: shard %d sampled %d rows in %v\n",
					p.Shard, p.RecordsOut, p.Wall.Round(time.Millisecond))
			default:
				fmt.Fprintf(w, "stream: %s pass %s: %d -> %d records in %v\n",
					p.Table, p.Pass, p.RecordsIn, p.RecordsOut, p.Wall.Round(time.Millisecond))
			}
		},
		OnEvalQuery: func(q EvalQuery) {
			mu.Lock()
			defer mu.Unlock()
			evalRate.Add(1)
			evalN++
			if evalN%100 == 0 {
				fmt.Fprintf(w, "eval: %d queries (%.0f q/s)\n", evalN, evalRate.Rate())
			}
		},
	}
}
