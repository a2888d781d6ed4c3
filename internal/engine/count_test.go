package engine

import (
	"math/rand"
	"testing"

	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

// keySets lays out a table's primary keys: as its row indices, implicitly
// or explicitly, or as key values the join index must resolve through its
// map.
var keySets = []struct {
	name string
	keys func(rng *rand.Rand, n int) []int64
}{
	{"row_index", func(*rand.Rand, int) []int64 { return nil }},
	{"explicit_row_index", func(_ *rand.Rand, n int) []int64 {
		pks := make([]int64, n)
		for i := range pks {
			pks[i] = int64(i)
		}
		return pks
	}},
	{"permuted", func(rng *rand.Rand, n int) []int64 {
		pks := make([]int64, n)
		for i, v := range rng.Perm(n) {
			pks[i] = int64(v)
		}
		return pks
	}},
	{"sparse", func(rng *rand.Rand, n int) []int64 {
		// Increasing with gaps, then shuffled: most keys exceed the row count.
		pks := make([]int64, n)
		v := int64(rng.Intn(3))
		for i := range pks {
			pks[i] = v
			v += 1 + int64(rng.Intn(4))
		}
		rng.Shuffle(n, func(i, j int) { pks[i], pks[j] = pks[j], pks[i] })
		return pks
	}},
	{"duplicated", func(rng *rand.Rand, n int) []int64 {
		pks := make([]int64, n)
		for i := range pks {
			pks[i] = int64(rng.Intn(n/2 + 1))
		}
		return pks
	}},
}

// buildKeyedSchema is buildTestSchema with the parents' (root's and b's)
// keys laid out by keys, and FKs drawn from those key values except for
// about one row in six, whose FK names no parent row (a negative value,
// or one at or above the largest key).
func buildKeyedSchema(rng *rand.Rand, keys func(*rand.Rand, int) []int64, rootRows, childRows int) *relation.Schema {
	s := buildTestSchema(rng, rootRows, childRows)
	for _, name := range []string{"root", "b"} {
		s.Table(name).PKVals = keys(rng, s.Table(name).NumRows())
	}
	for _, t := range s.Tables {
		if t.Parent == "" {
			continue
		}
		p := s.Table(t.Parent)
		var top int64
		for i := 0; i < p.NumRows(); i++ {
			top = max(top, p.PK(i)+1)
		}
		for i := range t.FK {
			switch rng.Intn(6) {
			case 0:
				if rng.Intn(2) == 0 {
					t.FK[i] = -1 - int64(rng.Intn(3))
				} else {
					t.FK[i] = top + int64(rng.Intn(3))
				}
			default:
				t.FK[i] = p.PK(rng.Intn(p.NumRows()))
			}
		}
	}
	return s
}

var joinTableSets = [][]string{
	{"root"},
	{"b"},
	{"root", "b"},
	{"root", "c"},
	{"root", "b", "c"},
	{"b", "d"},
	{"root", "b", "d"},
	{"root", "b", "c", "d"},
}

func TestDenseCountsMatchBruteForceOnKeyedSchemas(t *testing.T) {
	for ki, ks := range keySets {
		t.Run(ks.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + int64(ki)))
			s := buildKeyedSchema(rng, ks.keys, 18, 40)
			queries := make([]workload.Query, 48)
			for i := range queries {
				queries[i] = randomQuery(rng, s, joinTableSets[i%len(joinTableSets)], 0.5)
			}
			want := make([]int64, len(queries))
			truth := make([]workload.CardQuery, len(queries))
			var nonzero int
			for i := range queries {
				want[i] = bruteJoinCard(s, &queries[i])
				truth[i] = workload.CardQuery{Query: queries[i], Card: want[i]}
				if want[i] > 0 {
					nonzero++
				}
				if got := Card(s, &queries[i]); got != want[i] {
					t.Fatalf("query %d tables %v: Card = %d want %d", i, queries[i].Tables, got, want[i])
				}
			}
			if nonzero < len(queries)/2 {
				t.Fatalf("fixture too sparse: %d of %d queries nonempty", nonzero, len(queries))
			}
			for i, cq := range Label(s, queries) {
				if cq.Card != want[i] {
					t.Fatalf("query %d tables %v: Label = %d want %d", i, queries[i].Tables, cq.Card, want[i])
				}
			}
			var evaluated []int64
			EvalWorkload(s, truth, &obs.Hooks{OnEvalQuery: func(e obs.EvalQuery) {
				evaluated = append(evaluated, e.Card)
			}})
			for i, got := range evaluated {
				if got != want[i] {
					t.Fatalf("query %d tables %v: EvalWorkload counted %d want %d", i, queries[i].Tables, got, want[i])
				}
			}
			if len(evaluated) != len(queries) {
				t.Fatalf("EvalWorkload evaluated %d of %d queries", len(evaluated), len(queries))
			}
			if got, want := FOJSize(s), bruteFOJSize(s); got != want {
				t.Fatalf("FOJSize = %d want %d", got, want)
			}
		})
	}
}

// TestFourWayJoinCardAllocs bounds Card's allocations on the 4-way join of
// BenchmarkFourWayJoinCard: a small constant per participating table,
// independent of the row counts.
func TestFourWayJoinCardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := buildTestSchema(rng, 500, 1500)
	q := workload.Query{
		Tables: []string{"root", "b", "c", "d"},
		Preds: []workload.Predicate{
			{Table: "root", Column: "r1", Op: workload.LE, Code: 2},
			{Table: "b", Column: "b1", Op: workload.GE, Code: 1},
		},
	}
	allocs := testing.AllocsPerRun(20, func() { Card(s, &q) })
	if limit := 5 * len(q.Tables); allocs > float64(limit) {
		t.Fatalf("4-way join Card: %.0f allocs/op, want ≤ %d", allocs, limit)
	}
}
