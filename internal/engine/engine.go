// Package engine executes workload queries against in-memory databases:
// conjunctive filters, foreign-key joins along the schema tree, full outer
// join sizing, and timed execution. It plays the role PostgreSQL plays in
// the paper's evaluation — ground-truth cardinalities for training and test
// workloads, and wall-clock latencies for the performance-deviation
// experiments.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/relation"
	"sam/internal/workload"
)

// MatchMask evaluates the conjunction of preds on every row of t and
// returns one bool per row. Predicates referencing other tables are
// ignored; unknown columns panic (queries are validated upstream).
func MatchMask(t *relation.Table, preds []workload.Predicate) []bool {
	return matchMask(nil, t, preds)
}

// matchMask is MatchMask writing into mask, grown as needed.
func matchMask(mask []bool, t *relation.Table, preds []workload.Predicate) []bool {
	n := t.NumRows()
	if cap(mask) < n {
		mask = make([]bool, n)
	}
	mask = mask[:n]
	for i := range mask {
		mask[i] = true
	}
	for pi := range preds {
		p := &preds[pi]
		if p.Table != t.Name {
			continue
		}
		col := t.Col(p.Column)
		if col == nil {
			panic(fmt.Sprintf("engine: unknown column %s.%s", p.Table, p.Column))
		}
		data := col.Data
		switch p.Op {
		case workload.LE:
			lit := p.Code
			for i, c := range data {
				if c > lit {
					mask[i] = false
				}
			}
		case workload.GE:
			lit := p.Code
			for i, c := range data {
				if c < lit {
					mask[i] = false
				}
			}
		case workload.EQ:
			lit := p.Code
			for i, c := range data {
				if c != lit {
					mask[i] = false
				}
			}
		case workload.IN:
			set := make(map[int32]bool, len(p.Codes))
			for _, c := range p.Codes {
				set[c] = true
			}
			for i, c := range data {
				if !set[c] {
					mask[i] = false
				}
			}
		default:
			panic(fmt.Sprintf("engine: unknown op %v", p.Op))
		}
	}
	return mask
}

// Card returns the cardinality of q on s: the number of matching rows for a
// single relation, or the inner equi-join result size along the schema's FK
// edges for multi-relation queries. It resolves the FK edges q joins on
// every call; Label and EvalWorkload resolve a schema once for all queries.
func Card(s *relation.Schema, q *workload.Query) int64 {
	return newCounter(newJoinIndex(s, q)).card(q)
}

// FOJSize returns the number of tuples of the full outer join of the whole
// schema, computed by fanout aggregation without materialization: a parent
// row with no matching child rows still appears once (the child columns are
// NULL), hence the max(count, 1) factors.
func FOJSize(s *relation.Schema) int64 {
	roots := s.Roots()
	if len(roots) != 1 {
		// A forest's FOJ is the product of the trees' FOJs; this repository
		// only uses single-root schemas.
		panic("engine: FOJSize requires a single-root schema")
	}
	ix := newJoinIndex(s, nil)
	return newCounter(ix).fojSize(ix.pos(roots[0].Name))
}

// TimedCard executes q and returns its cardinality along with the
// wall-clock execution time — the latency signal for the performance
// deviation experiments (Tables 8 and 9).
func TimedCard(s *relation.Schema, q *workload.Query) (int64, time.Duration) {
	start := time.Now()
	card := Card(s, q)
	return card, time.Since(start)
}

// Label evaluates every query against s in parallel and returns the
// resulting cardinality constraints in input order. The workers share one
// join index, each takes the next unclaimed query as it finishes one, and
// each reuses its own filter and count buffers from query to query.
func Label(s *relation.Schema, queries []workload.Query) []workload.CardQuery {
	out := make([]workload.CardQuery, len(queries))
	ix := newJoinIndex(s, nil)
	nw := min(runtime.GOMAXPROCS(0), len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newCounter(ix)
			for i := int(next.Add(1) - 1); i < len(queries); i = int(next.Add(1) - 1) {
				out[i] = workload.CardQuery{Query: queries[i], Card: c.card(&queries[i])}
			}
		}()
	}
	wg.Wait()
	return out
}

// Enumerate executes q and walks every result tuple, returning the result
// cardinality. Unlike Card — whose cost is dominated by scans — Enumerate
// spends work proportional to the output size (it visits each join
// combination), which is how latency behaves in a row-producing DBMS.
// The performance-deviation experiments (Tables 8–9) time this walk.
func Enumerate(s *relation.Schema, q *workload.Query) int64 {
	if len(q.Tables) == 1 {
		t := s.Table(q.Tables[0])
		mask := MatchMask(t, q.Preds)
		var n int64
		var sink int64
		for i, m := range mask {
			if m {
				n++
				sink ^= int64(i) // touch each produced row
			}
		}
		runtime.KeepAlive(sink)
		return n
	}
	inQ := make(map[string]bool, len(q.Tables))
	for _, name := range q.Tables {
		inQ[name] = true
	}
	root := ""
	for _, name := range q.Tables {
		parent := s.Table(name).Parent
		if parent == "" || !inQ[parent] {
			root = name
			break
		}
	}
	rt := s.Table(root)
	mask := MatchMask(rt, q.Preds)
	rows := childJoinRows(s, q, inQ, root)
	var total int64
	var sink int64
	// For each root row, walk the cartesian product of its children's
	// expanded row lists — one visit per result tuple.
	for i := 0; i < rt.NumRows(); i++ {
		if !mask[i] {
			continue
		}
		total += walkProduct(rows, rt.PK(i), 0, &sink)
	}
	runtime.KeepAlive(sink)
	return total
}

// childRowSet maps a parent key to the (already recursively expanded)
// joined row weights of one child subtree: each entry is the pk of a
// matching child row, repeated per its own subtree combination count.
type childRowSet map[int64][]int64

// childJoinRows builds, per participating child of parent, the list of
// matching child-subtree expansions keyed by parent key.
func childJoinRows(s *relation.Schema, q *workload.Query, inQ map[string]bool, parent string) []childRowSet {
	var out []childRowSet
	for _, child := range s.Children(parent) {
		if !inQ[child.Name] {
			continue
		}
		mask := MatchMask(child, q.Preds)
		grand := childJoinRows(s, q, inQ, child.Name)
		set := make(childRowSet)
		var sink int64
		for i := 0; i < child.NumRows(); i++ {
			if !mask[i] {
				continue
			}
			pk := child.PK(i)
			n := walkProduct(grand, pk, 0, &sink)
			for rep := int64(0); rep < n; rep++ {
				set[child.FK[i]] = append(set[child.FK[i]], pk)
			}
		}
		out = append(out, set)
	}
	return out
}

// walkProduct walks the cartesian product of the sibling row sets for one
// parent key, touching every combination. All sibling sets are keyed by
// the same parent key.
func walkProduct(sets []childRowSet, pk int64, level int, sink *int64) int64 {
	if level == len(sets) {
		return 1
	}
	var n int64
	for _, sub := range sets[level][pk] {
		*sink ^= sub
		n += walkProduct(sets, pk, level+1, sink)
	}
	return n
}

// TimedEnumerate executes q with output walking and returns its
// cardinality along with the wall-clock execution time.
func TimedEnumerate(s *relation.Schema, q *workload.Query) (int64, time.Duration) {
	start := time.Now()
	card := Enumerate(s, q)
	return card, time.Since(start)
}
