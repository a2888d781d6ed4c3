package engine

import (
	"strings"
	"time"

	"sam/internal/metrics"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

// EvalWorkload executes each constraint's query against s and returns the
// Q-Errors of the measured cardinalities versus the recorded ground truth.
// When h is non-nil every query emits an obs.EvalQuery event carrying its
// estimated and true cardinality, Q-Error, and wall-clock latency — the
// signal behind the eval_qerror / eval_query_seconds metrics and -progress
// output. Queries run sequentially so per-query latencies are undistorted
// by sibling work; they share one join index, resolved before the first.
func EvalWorkload(s *relation.Schema, queries []workload.CardQuery, h *obs.Hooks) []float64 {
	out := make([]float64, 0, len(queries))
	c := newCounter(newJoinIndex(s, nil))
	for i := range queries {
		start := time.Now()
		got := c.card(&queries[i].Query)
		wall := time.Since(start)
		qe := metrics.QError(float64(got), float64(queries[i].Card))
		out = append(out, qe)
		h.EvalQuery(obs.EvalQuery{
			Card:   got,
			Truth:  queries[i].Card,
			QError: qe,
			Table:  strings.Join(queries[i].Tables, ","),
			Preds:  len(queries[i].Preds),
			Wall:   wall,
		})
	}
	return out
}
