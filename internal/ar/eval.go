package ar

import (
	"math"
	"runtime"
	"strings"
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
	// Batch is the lane count of each worker's estimator, the number of
	// chains one forward sweep advances; values ≤ 1 mean one lane. It only
	// sets speed: chain c of query qi draws from its own stream, so the
	// estimates do not depend on it.
	Batch int
	// Workers is the number of goroutines that pick up queries; 0 means
	// GOMAXPROCS. It only sets speed: each query's estimate is written to
	// its own slot, whichever goroutine computes it.
	Workers int
	// Seed drives every chain: query qi is seeded SplitSeed(Seed, qi) and
	// its chain c SplitSeed(SplitSeed(Seed, qi), c). The Q-Errors are a
	// function of (model, queries, Seed, Samples).
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
// beyond spec compilation — and every query has its own seed, so the
// result is a pure function of (model, queries, Seed, Samples).
// Unsatisfiable queries estimate 0. When h is non-nil every query emits an
// obs.EvalQuery event with the rounded estimate, truth, Q-Error, the
// queried tables, the predicate count and latency.
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
				q := &queries[qi]
				var estv float64
				if spec, err := m.Compile(&q.Query); err == nil {
					estv = est.EstimateSpec(SplitSeed(opts.Seed, qi), spec, samples)
				}
				qe := metrics.QError(estv, float64(q.Card))
				out[qi] = qe
				h.EvalQuery(obs.EvalQuery{
					Card:   int64(math.Round(estv)),
					Truth:  q.Card,
					QError: qe,
					Table:  strings.Join(q.Tables, ","),
					Preds:  len(q.Preds),
					Wall:   time.Since(start),
				})
			}
		}()
	}
	wg.Wait()
	return out
}
