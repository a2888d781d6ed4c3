package ar

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/metrics"
	"sam/internal/obs"
	"sam/internal/workload"
)

// EvalOptions controls model-side workload evaluation (EvalWorkload).
type EvalOptions struct {
	// Samples is the number of Monte-Carlo chains per query estimate.
	// Zero defaults to 32.
	Samples int
	// Batch is the lane count of each worker's estimator; values ≤ 1 mean
	// one lane. Different lane counts draw different (equally valid)
	// Monte-Carlo chains for the same seed.
	Batch int
	// Workers bounds query-level parallelism; 0 = GOMAXPROCS.
	Workers int
	// Seed drives the per-query rng streams; results are independent of
	// Workers for a fixed (Seed, Samples, Batch).
	Seed int64
}

// DefaultEvalOptions returns the batched defaults used by the CLIs.
func DefaultEvalOptions(seed int64) EvalOptions {
	return EvalOptions{Samples: 32, Batch: 64, Seed: seed}
}

// EvalWorkload estimates every constraint's cardinality directly from the
// model (no generated database) and returns the Q-Errors versus the
// recorded ground truth. Each worker goroutine reuses one sampler across
// all of its queries — the warm estimate path allocates nothing per query
// beyond spec compilation — and every query gets its own seeded rng
// stream, so the result is a pure function of (model, queries, opts).
// Unsatisfiable queries estimate 0. When h is non-nil every query emits an
// obs.EvalQuery event with the rounded estimate, truth, Q-Error and
// latency.
func EvalWorkload(m *Model, queries []workload.CardQuery, opts EvalOptions, h *obs.Hooks) []float64 {
	out := make([]float64, len(queries))
	if len(queries) == 0 {
		return out
	}
	samples := opts.Samples
	if samples <= 0 {
		samples = 32
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est := m.NewBatchSampler(max(opts.Batch, 1))
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(queries) {
					return
				}
				start := time.Now()
				rng := rand.New(rand.NewSource(opts.Seed + int64(qi)*1_000_003))
				var estv float64
				if spec, err := m.Compile(&queries[qi].Query); err == nil {
					estv = est.EstimateSpec(rng, spec, samples)
				}
				qe := metrics.QError(estv, float64(queries[qi].Card))
				out[qi] = qe
				h.EvalQuery(obs.EvalQuery{
					Card:   int64(math.Round(estv)),
					Truth:  queries[qi].Card,
					QError: qe,
					Wall:   time.Since(start),
				})
			}
		}()
	}
	wg.Wait()
	return out
}
