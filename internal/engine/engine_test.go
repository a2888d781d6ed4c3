package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"sam/internal/relation"
	"sam/internal/workload"
)

// buildTestSchema creates a depth-2 tree: root ← b, c; b ← d. Sizes and
// contents are randomized but seeded.
func buildTestSchema(rng *rand.Rand, rootRows, childRows int) *relation.Schema {
	mkCol := func(name string, dom, rows int) *relation.Column {
		c := relation.NewColumn(name, relation.Categorical, dom)
		for i := 0; i < rows; i++ {
			c.Append(int32(rng.Intn(dom)))
		}
		return c
	}
	root := relation.NewTable("root", mkCol("r1", 4, rootRows), mkCol("r2", 3, rootRows))

	mkChild := func(name, parent string, parentRows, rows int) *relation.Table {
		t := relation.NewTable(name, mkCol(name+"1", 5, rows), mkCol(name+"2", 2, rows))
		t.Parent = parent
		t.FK = make([]int64, rows)
		for i := range t.FK {
			t.FK[i] = int64(rng.Intn(parentRows))
		}
		return t
	}
	b := mkChild("b", "root", rootRows, childRows)
	c := mkChild("c", "root", rootRows, childRows)
	d := mkChild("d", "b", childRows, childRows)
	return relation.MustSchema(root, b, c, d)
}

// bruteJoinCard materializes the inner join of the query's tables by nested
// recursion and counts matching combinations.
func bruteJoinCard(s *relation.Schema, q *workload.Query) int64 {
	inQ := map[string]bool{}
	for _, t := range q.Tables {
		inQ[t] = true
	}
	root := ""
	for _, name := range q.Tables {
		p := s.Table(name).Parent
		if p == "" || !inQ[p] {
			root = name
		}
	}
	var countFor func(table string, keyFilter func(int64) bool) int64
	countFor = func(table string, keyFilter func(int64) bool) int64 {
		t := s.Table(table)
		mask := MatchMask(t, q.Preds)
		var total int64
		for i := 0; i < t.NumRows(); i++ {
			if !mask[i] {
				continue
			}
			if keyFilter != nil && !keyFilter(t.FK[i]) {
				continue
			}
			w := int64(1)
			pk := t.PK(i)
			for _, child := range s.Children(table) {
				if !inQ[child.Name] {
					continue
				}
				w *= countFor(child.Name, func(fk int64) bool { return fk == pk })
				if w == 0 {
					break
				}
			}
			total += w
		}
		return total
	}
	return countFor(root, nil)
}

// bruteFOJSize enumerates full-outer-join tuples of the whole tree.
func bruteFOJSize(s *relation.Schema) int64 {
	var expand func(table string, keyFilter func(int64) bool) int64
	expand = func(table string, keyFilter func(int64) bool) int64 {
		t := s.Table(table)
		var total int64
		for i := 0; i < t.NumRows(); i++ {
			if keyFilter != nil && !keyFilter(t.FK[i]) {
				continue
			}
			w := int64(1)
			pk := t.PK(i)
			for _, child := range s.Children(table) {
				c := expand(child.Name, func(fk int64) bool { return fk == pk })
				if c > 1 {
					w *= c
				}
			}
			total += w
		}
		return total
	}
	root := s.Roots()[0]
	return expand(root.Name, nil)
}

func TestSingleTableCard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := buildTestSchema(rng, 50, 80)
	root := s.Table("root")
	q := workload.Query{
		Tables: []string{"root"},
		Preds: []workload.Predicate{
			{Table: "root", Column: "r1", Op: workload.LE, Code: 2},
			{Table: "root", Column: "r2", Op: workload.EQ, Code: 1},
		},
	}
	var want int64
	for i := 0; i < root.NumRows(); i++ {
		if root.Cols[0].Data[i] <= 2 && root.Cols[1].Data[i] == 1 {
			want++
		}
	}
	if got := Card(s, &q); got != want {
		t.Fatalf("Card = %d want %d", got, want)
	}
}

func TestMatchMaskINAndGE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := buildTestSchema(rng, 30, 30)
	b := s.Table("b")
	preds := []workload.Predicate{
		{Table: "b", Column: "b1", Op: workload.IN, Codes: []int32{0, 4}},
		{Table: "b", Column: "b2", Op: workload.GE, Code: 1},
	}
	mask := MatchMask(b, preds)
	for i := range mask {
		v1 := b.Cols[0].Data[i]
		v2 := b.Cols[1].Data[i]
		want := (v1 == 0 || v1 == 4) && v2 >= 1
		if mask[i] != want {
			t.Fatalf("row %d: mask %v want %v", i, mask[i], want)
		}
	}
}

func TestJoinCardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := buildTestSchema(rng, 20, 35)
	tableSets := [][]string{
		{"root", "b"},
		{"root", "c"},
		{"root", "b", "c"},
		{"b", "d"},
		{"root", "b", "d"},
		{"root", "b", "c", "d"},
	}
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng, s, tableSets[rng.Intn(len(tableSets))], 0.5)
		if err := q.Validate(s); err != nil {
			t.Fatalf("invalid test query: %v", err)
		}
		want := bruteJoinCard(s, &q)
		if got := Card(s, &q); got != want {
			t.Fatalf("trial %d tables %v: Card = %d want %d", trial, q.Tables, got, want)
		}
	}
}

// randomQuery joins tables with, on each of them with probability pPred, a
// random range or equality predicate on a random column.
func randomQuery(rng *rand.Rand, s *relation.Schema, tables []string, pPred float64) workload.Query {
	q := workload.Query{Tables: tables}
	for _, name := range tables {
		if rng.Float64() < pPred {
			tab := s.Table(name)
			col := tab.Cols[rng.Intn(len(tab.Cols))]
			ops := []workload.Op{workload.LE, workload.GE, workload.EQ}
			q.Preds = append(q.Preds, workload.Predicate{
				Table: name, Column: col.Name,
				Op: ops[rng.Intn(3)], Code: int32(rng.Intn(col.NumValues)),
			})
		}
	}
	return q
}

func TestFOJSizeMatchesBruteForce(t *testing.T) {
	for seed := int64(10); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := buildTestSchema(rng, 8, 12)
		want := bruteFOJSize(s)
		if got := FOJSize(s); got != want {
			t.Fatalf("seed %d: FOJSize = %d want %d", seed, got, want)
		}
	}
}

func TestTimedCardAgreesWithCard(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := buildTestSchema(rng, 30, 40)
	q := workload.Query{Tables: []string{"root", "b"}, Preds: []workload.Predicate{
		{Table: "b", Column: "b1", Op: workload.LE, Code: 3},
	}}
	card, dur := TimedCard(s, &q)
	if card != Card(s, &q) {
		t.Fatal("TimedCard disagrees with Card")
	}
	if dur < 0 {
		t.Fatal("negative duration")
	}
}

func TestLabelParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := buildTestSchema(rng, 25, 40)
	queries := workload.GenerateMultiRelation(rng, s, 64, workload.DefaultMultiRelationOptions())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		labeled := Label(s, queries)
		if len(labeled) != 64 {
			t.Fatalf("GOMAXPROCS=%d: labeled %d", procs, len(labeled))
		}
		for i := range labeled {
			if labeled[i].Card != Card(s, &queries[i]) {
				t.Fatalf("GOMAXPROCS=%d query %d: label mismatch", procs, i)
			}
		}
	}
}

func TestCardEmptyJoinIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := buildTestSchema(rng, 10, 10)
	q := workload.Query{Tables: []string{"root", "b"}, Preds: []workload.Predicate{
		{Table: "b", Column: "b1", Op: workload.IN, Codes: []int32{4}},
		{Table: "b", Column: "b2", Op: workload.GE, Code: 2}, // b2 domain is 2 → impossible... GE 2 never matches domain {0,1}
	}}
	// b2 has domain 2, codes {0,1}; GE 2 cannot match — but Validate would
	// reject code 2, so craft emptiness via contradictory equality instead.
	q.Preds[1] = workload.Predicate{Table: "b", Column: "b2", Op: workload.EQ, Code: 0}
	q.Preds = append(q.Preds, workload.Predicate{Table: "b", Column: "b2", Op: workload.EQ, Code: 1})
	if got := Card(s, &q); got != 0 {
		t.Fatalf("contradictory predicates: card %d", got)
	}
}

func TestEnumerateMatchesCard(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := buildTestSchema(rng, 15, 30)
	tableSets := [][]string{
		{"root"},
		{"root", "b"},
		{"root", "b", "c"},
		{"b", "d"},
		{"root", "b", "c", "d"},
	}
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng, s, tableSets[rng.Intn(len(tableSets))], 0.6)
		if got, want := Enumerate(s, &q), Card(s, &q); got != want {
			t.Fatalf("trial %d tables %v: Enumerate %d != Card %d", trial, q.Tables, got, want)
		}
	}
}

func TestTimedEnumerateScalesWithOutput(t *testing.T) {
	// A query producing far more rows must take measurably longer than one
	// producing almost none, on the same database.
	rng := rand.New(rand.NewSource(52))
	s := buildTestSchema(rng, 400, 4000)
	big := workload.Query{Tables: []string{"root", "b", "c", "d"}}
	small := workload.Query{Tables: []string{"root", "b", "c", "d"}, Preds: []workload.Predicate{
		{Table: "root", Column: "r1", Op: workload.EQ, Code: 0},
		{Table: "b", Column: "b1", Op: workload.EQ, Code: 0},
		{Table: "d", Column: "d1", Op: workload.EQ, Code: 4},
	}}
	cb, db := Enumerate(s, &big), Enumerate(s, &small)
	if cb < 100*db || cb < 10000 {
		t.Skipf("fixture not contrasty enough: big %d small %d", cb, db)
	}
	var bigBest, smallBest int64 = 1 << 62, 1 << 62
	for r := 0; r < 3; r++ {
		_, d1 := TimedEnumerate(s, &big)
		_, d2 := TimedEnumerate(s, &small)
		if d1.Nanoseconds() < bigBest {
			bigBest = d1.Nanoseconds()
		}
		if d2.Nanoseconds() < smallBest {
			smallBest = d2.Nanoseconds()
		}
	}
	if bigBest < smallBest*2 {
		t.Fatalf("latency not output-sensitive: big %dns (card %d) small %dns (card %d)",
			bigBest, cb, smallBest, db)
	}
}

func TestMatchMaskUnknownColumnPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := buildTestSchema(rng, 5, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatchMask(s.Table("root"), []workload.Predicate{{Table: "root", Column: "nope", Op: workload.EQ}})
}
