package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sam/internal/relation"
)

func fixtureSchema(rng *rand.Rand) *relation.Schema {
	mkCol := func(name string, dom, rows int) *relation.Column {
		c := relation.NewColumn(name, relation.Categorical, dom)
		for i := 0; i < rows; i++ {
			c.Append(int32(rng.Intn(dom)))
		}
		return c
	}
	a := relation.NewTable("a", mkCol("a1", 6, 40), mkCol("a2", 10, 40), mkCol("a3", 3, 40))
	b := relation.NewTable("b", mkCol("b1", 4, 60))
	b.Parent = "a"
	b.FK = make([]int64, 60)
	for i := range b.FK {
		b.FK[i] = int64(rng.Intn(40))
	}
	c := relation.NewTable("c", mkCol("c1", 8, 50), mkCol("c2", 2, 50))
	c.Parent = "a"
	c.FK = make([]int64, 50)
	for i := range c.FK {
		c.FK[i] = int64(rng.Intn(40))
	}
	return relation.MustSchema(a, b, c)
}

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		p    Predicate
		code int32
		want bool
	}{
		{Predicate{Op: LE, Code: 3}, 3, true},
		{Predicate{Op: LE, Code: 3}, 4, false},
		{Predicate{Op: GE, Code: 3}, 3, true},
		{Predicate{Op: GE, Code: 3}, 2, false},
		{Predicate{Op: EQ, Code: 3}, 3, true},
		{Predicate{Op: EQ, Code: 3}, 2, false},
		{Predicate{Op: IN, Codes: []int32{1, 5}}, 5, true},
		{Predicate{Op: IN, Codes: []int32{1, 5}}, 2, false},
	}
	for i, c := range cases {
		if got := c.p.Matches(c.code); got != c.want {
			t.Fatalf("case %d: Matches = %v want %v", i, got, c.want)
		}
	}
}

func TestPredicateRange(t *testing.T) {
	lo, hi, ok := (&Predicate{Op: LE, Code: 4}).Range(10)
	if !ok || lo != 0 || hi != 4 {
		t.Fatalf("LE range %d..%d ok=%v", lo, hi, ok)
	}
	lo, hi, ok = (&Predicate{Op: GE, Code: 4}).Range(10)
	if !ok || lo != 4 || hi != 9 {
		t.Fatalf("GE range %d..%d ok=%v", lo, hi, ok)
	}
	lo, hi, ok = (&Predicate{Op: EQ, Code: 4}).Range(10)
	if !ok || lo != 4 || hi != 4 {
		t.Fatalf("EQ range %d..%d ok=%v", lo, hi, ok)
	}
	if _, _, ok = (&Predicate{Op: IN, Codes: []int32{1}}).Range(10); ok {
		t.Fatal("IN should not report a range")
	}
}

func TestQueryValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := fixtureSchema(rng)
	good := Query{Tables: []string{"a", "b"}, Preds: []Predicate{
		{Table: "a", Column: "a1", Op: LE, Code: 2},
	}}
	if err := good.Validate(s); err != nil {
		t.Fatalf("good query rejected: %v", err)
	}
	bad := []Query{
		{},                           // no tables
		{Tables: []string{"zz"}},     // unknown table
		{Tables: []string{"a", "a"}}, // duplicate
		{Tables: []string{"b", "c"}}, // disconnected (a missing)
		{Tables: []string{"a"}, Preds: []Predicate{{Table: "b", Column: "b1", Op: EQ}}},          // pred on absent table
		{Tables: []string{"a"}, Preds: []Predicate{{Table: "a", Column: "zz", Op: EQ}}},          // unknown col
		{Tables: []string{"a"}, Preds: []Predicate{{Table: "a", Column: "a1", Op: EQ, Code: 6}}}, // out of domain
		{Tables: []string{"a"}, Preds: []Predicate{{Table: "a", Column: "a1", Op: IN}}},          // empty IN
		{Tables: []string{"a"}, Preds: []Predicate{{Table: "a", Column: "a1", Op: Op(7)}}},       // unknown op
		{Tables: []string{"a"}, Preds: []Predicate{{Table: "a", Column: "a1", Op: Op(-1)}}},      // unknown op
	}
	for i, q := range bad {
		if err := q.Validate(s); err == nil {
			t.Fatalf("bad query %d accepted", i)
		}
	}
}

func TestGenerateSingleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := fixtureSchema(rng)
	qs := GenerateSingleRelation(rng, s.Table("a"), 200, DefaultSingleRelationOptions())
	if len(qs) != 200 {
		t.Fatalf("generated %d", len(qs))
	}
	for i, q := range qs {
		if err := q.Validate(s); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if len(q.Preds) < 1 || len(q.Preds) > 3 { // table has 3 columns, MaxFilters clamps
			t.Fatalf("query %d has %d filters", i, len(q.Preds))
		}
		// No duplicate columns per query.
		seen := map[string]bool{}
		for _, p := range q.Preds {
			if seen[p.Column] {
				t.Fatalf("query %d filters column %s twice", i, p.Column)
			}
			seen[p.Column] = true
		}
	}
}

func TestGenerateMultiRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := fixtureSchema(rng)
	qs := GenerateMultiRelation(rng, s, 300, DefaultMultiRelationOptions())
	sawJoin := false
	sawSingle := false
	for i, q := range qs {
		if err := q.Validate(s); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if len(q.Preds) == 0 {
			t.Fatalf("query %d has no filters", i)
		}
		if len(q.Tables) > 1 {
			sawJoin = true
		} else {
			sawSingle = true
		}
		if len(q.Tables) > 3 {
			t.Fatalf("query %d joins too many tables: %v", i, q.Tables)
		}
	}
	if !sawJoin || !sawSingle {
		t.Fatalf("workload lacks variety: join=%v single=%v", sawJoin, sawSingle)
	}
}

func TestCoverageRatioRestrictsLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := fixtureSchema(rng)
	opts := DefaultSingleRelationOptions()
	opts.CoverageRatio = 0.5
	qs := GenerateSingleRelation(rng, s.Table("a"), 300, opts)
	for i, q := range qs {
		for _, p := range q.Preds {
			dom := s.Table("a").Col(p.Column).NumValues
			lim := int32(float64(dom)*0.5 + 0.999999)
			if p.Code >= lim {
				t.Fatalf("query %d: literal %d beyond covered %d of %d", i, p.Code, lim, dom)
			}
		}
	}
}

func TestWorkloadSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := fixtureSchema(rng)
	qs := GenerateMultiRelation(rng, s, 20, DefaultMultiRelationOptions())
	w := &Workload{}
	for i, q := range qs {
		w.Queries = append(w.Queries, CardQuery{Query: q, Card: int64(i * 7)})
	}
	var buf bytes.Buffer
	if err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() {
		t.Fatalf("roundtrip length %d want %d", got.Len(), w.Len())
	}
	for i := range got.Queries {
		if got.Queries[i].Card != w.Queries[i].Card {
			t.Fatalf("query %d card mismatch", i)
		}
		if got.Queries[i].String() != w.Queries[i].String() {
			t.Fatalf("query %d body mismatch", i)
		}
	}
}

func TestPrefixAndTableSets(t *testing.T) {
	w := &Workload{Queries: []CardQuery{
		{Query: Query{Tables: []string{"a"}}},
		{Query: Query{Tables: []string{"b", "a"}}},
		{Query: Query{Tables: []string{"a", "b"}}},
		{Query: Query{Tables: []string{"a"}}},
	}}
	if w.Prefix(2).Len() != 2 || w.Prefix(99).Len() != 4 {
		t.Fatal("Prefix broken")
	}
	sets := w.TableSets()
	if len(sets) != 2 {
		t.Fatalf("TableSets = %v", sets)
	}
}

func TestComputeStats(t *testing.T) {
	w := &Workload{Queries: []CardQuery{
		{Query: Query{Tables: []string{"a"}, Preds: []Predicate{
			{Table: "a", Column: "x", Op: LE, Code: 3},
			{Table: "a", Column: "y", Op: EQ, Code: 1},
		}}, Card: 10},
		{Query: Query{Tables: []string{"a", "b"}, Preds: []Predicate{
			{Table: "b", Column: "z", Op: IN, Codes: []int32{1, 2}},
		}}, Card: 0},
	}}
	s := ComputeStats(w)
	if s.Queries != 2 || s.ZeroCardinality != 1 || s.MaxCardinality != 10 {
		t.Fatalf("stats %+v", s)
	}
	if s.FiltersPerQuery[2] != 1 || s.FiltersPerQuery[1] != 1 {
		t.Fatalf("filter histogram %v", s.FiltersPerQuery)
	}
	if s.TablesPerQuery[1] != 1 || s.TablesPerQuery[2] != 1 {
		t.Fatalf("table histogram %v", s.TablesPerQuery)
	}
	if s.OpCounts[LE] != 1 || s.OpCounts[EQ] != 1 || s.OpCounts[IN] != 1 {
		t.Fatalf("op counts %v", s.OpCounts)
	}
	if len(s.ColumnCounts) != 3 {
		t.Fatalf("column counts %v", s.ColumnCounts)
	}
	out := s.String()
	for _, want := range []string{"queries: 2", "filters/query", "operators"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered stats missing %q:\n%s", want, out)
		}
	}
}

func TestCoverageRatios(t *testing.T) {
	w := &Workload{Queries: []CardQuery{
		{Query: Query{Tables: []string{"a"}, Preds: []Predicate{
			{Table: "a", Column: "x", Op: LE, Code: 2},
			{Table: "a", Column: "x", Op: GE, Code: 7},
		}}},
		{Query: Query{Tables: []string{"a"}, Preds: []Predicate{
			{Table: "a", Column: "y", Op: IN, Codes: []int32{0, 9}},
		}}},
	}}
	ratios := CoverageRatios(w, map[string]int{"a.x": 10, "a.y": 10})
	// x literals span 2..7 → 6/10; y spans 0..9 → full.
	if math.Abs(ratios["a.x"]-0.6) > 1e-12 {
		t.Fatalf("x coverage %v", ratios["a.x"])
	}
	if ratios["a.y"] != 1 {
		t.Fatalf("y coverage %v", ratios["a.y"])
	}
	if _, ok := ratios["a.unknown"]; ok {
		t.Fatal("unfiltered column reported")
	}
}

func TestGenerateWithINProb(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := fixtureSchema(rng)
	opts := DefaultSingleRelationOptions()
	opts.INProb = 0.5
	qs := GenerateSingleRelation(rng, s.Table("a"), 200, opts)
	sawIN := false
	for i, q := range qs {
		if err := q.Validate(s); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		for _, p := range q.Preds {
			if p.Op == IN {
				sawIN = true
				if len(p.Codes) == 0 || len(p.Codes) > 4 {
					t.Fatalf("IN list size %d", len(p.Codes))
				}
			}
		}
	}
	if !sawIN {
		t.Fatal("INProb produced no IN predicates")
	}
}
