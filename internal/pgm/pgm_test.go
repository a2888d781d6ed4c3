package pgm

import (
	"math/rand"
	"testing"

	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/metrics"
	"sam/internal/relation"
	"sam/internal/workload"
)

func TestChordalizeSquare(t *testing.T) {
	// 4-cycle 0-1-2-3-0 is not chordal; min-fill must add one diagonal and
	// produce two triangles.
	g := newGraph(4)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(2, 3)
	g.addEdge(3, 0)
	chordal, order := chordalize(g)
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	cliques := maximalCliques(chordal, order)
	if len(cliques) != 2 {
		t.Fatalf("cliques %v", cliques)
	}
	for _, c := range cliques {
		if len(c) != 3 {
			t.Fatalf("expected triangles, got %v", cliques)
		}
	}
}

func TestChordalizeTriangleIsUnchanged(t *testing.T) {
	g := newGraph(3)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(0, 2)
	chordal, order := chordalize(g)
	cliques := maximalCliques(chordal, order)
	if len(cliques) != 1 || len(cliques[0]) != 3 {
		t.Fatalf("cliques %v", cliques)
	}
}

func TestMaximalCliquesIsolatedVertices(t *testing.T) {
	g := newGraph(3) // no edges
	chordal, order := chordalize(g)
	cliques := maximalCliques(chordal, order)
	if len(cliques) != 3 {
		t.Fatalf("cliques %v", cliques)
	}
}

func TestJunctionTreeSeparators(t *testing.T) {
	cliques := [][]int{{0, 1, 2}, {1, 2, 3}, {3, 4}}
	edges := junctionTree(cliques)
	if len(edges) != 2 {
		t.Fatalf("edges %v", edges)
	}
	var sepSizes []int
	for _, e := range edges {
		sepSizes = append(sepSizes, len(e.sep))
	}
	// One separator {1,2}, one {3}.
	if !(sepSizes[0]+sepSizes[1] == 3) {
		t.Fatalf("separator sizes %v", sepSizes)
	}
}

func TestSubsetAndIntersect(t *testing.T) {
	if !subsetOf([]int{1, 3}, []int{1, 2, 3}) || subsetOf([]int{1, 4}, []int{1, 2, 3}) {
		t.Fatal("subsetOf broken")
	}
	got := intersect([]int{1, 2, 4, 6}, []int{2, 3, 4, 7})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("intersect %v", got)
	}
}

func singleTableFixture(rng *rand.Rand, rows int) *relation.Schema {
	c1 := relation.NewColumn("x", relation.Categorical, 6)
	c2 := relation.NewColumn("y", relation.Numeric, 10)
	c3 := relation.NewColumn("z", relation.Categorical, 4)
	for i := 0; i < rows; i++ {
		v := int32(rng.Intn(6))
		c1.Append(v)
		c2.Append(int32(rng.Intn(10)))
		if rng.Float64() < 0.7 {
			c3.Append(v % 4) // z correlates with x
		} else {
			c3.Append(int32(rng.Intn(4)))
		}
	}
	return relation.MustSchema(relation.NewTable("t", c1, c2, c3))
}

func TestPGMSingleTableSatisfiesConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := singleTableFixture(rng, 2000)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 10, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	sizes := map[string]int{"t": 2000}
	p, err := Train(s, wl, sizes, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Tables[0].NumRows() != 2000 {
		t.Fatalf("generated %d rows", gen.Tables[0].NumRows())
	}
	var qerrs []float64
	for i := range wl.Queries {
		got := engine.Card(gen, &wl.Queries[i].Query)
		qerrs = append(qerrs, metrics.QError(float64(got), float64(wl.Queries[i].Card)))
	}
	sum := metrics.Summarize(qerrs)
	// PGM derives a near-exact solution on tiny workloads (paper Table 2).
	if sum.Median > 2.0 {
		t.Fatalf("PGM median Q-Error %.2f too high on tiny workload (%v)", sum.Median, sum)
	}
}

func TestPGMMultiRelationGenerates(t *testing.T) {
	orig := datagen.IMDB(3, 200)
	rng := rand.New(rand.NewSource(5))
	queries := workload.GenerateMultiRelation(rng, orig, 30, workload.DefaultMultiRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(orig, queries)}
	sizes := map[string]int{}
	for _, tab := range orig.Tables {
		sizes[tab.Name] = tab.NumRows()
	}
	populations := map[string]float64{}
	for _, ts := range wl.TableSets() {
		if len(ts) > 1 {
			q := workload.Query{Tables: ts}
			populations[ViewKey(ts)] = float64(engine.Card(orig, &q))
		}
	}
	p, err := Train(orig, wl, sizes, populations, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tab := range orig.Tables {
		g := gen.Table(tab.Name)
		if g.NumRows() != tab.NumRows() {
			t.Fatalf("table %s: %d rows want %d", tab.Name, g.NumRows(), tab.NumRows())
		}
		if tab.Parent != "" {
			for _, fk := range g.FK {
				if fk < 0 || fk >= int64(gen.Table(tab.Parent).NumRows()) {
					t.Fatalf("dangling FK in %s", tab.Name)
				}
			}
		}
	}
}

func TestPGMMissingJoinPopulationErrors(t *testing.T) {
	orig := datagen.IMDB(4, 50)
	wl := &workload.Workload{Queries: []workload.CardQuery{{
		Query: workload.Query{
			Tables: []string{"title", "cast_info"},
			Preds: []workload.Predicate{
				{Table: "title", Column: "kind_id", Op: workload.EQ, Code: 1},
			},
		},
		Card: 5,
	}}}
	sizes := map[string]int{}
	for _, tab := range orig.Tables {
		sizes[tab.Name] = tab.NumRows()
	}
	if _, err := Train(orig, wl, sizes, nil, DefaultConfig()); err == nil {
		t.Fatal("missing join population accepted")
	}
}

func TestPGMEmptyWorkloadErrors(t *testing.T) {
	orig := datagen.Census(1, 100)
	if _, err := Train(orig, &workload.Workload{}, map[string]int{"census": 100}, nil, DefaultConfig()); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestPGMCliqueCellCap(t *testing.T) {
	// Force a clique whose joint exceeds MaxCells.
	rng := rand.New(rand.NewSource(9))
	s := datagen.DMV(2, 500)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 200, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	cfg := DefaultConfig()
	cfg.MaxCells = 1000
	_, err := Train(s, wl, map[string]int{"dmv": 500}, nil, cfg)
	if err == nil {
		t.Fatal("expected cell-cap error on a dense workload")
	}
}

func TestViewKeyCanonical(t *testing.T) {
	if ViewKey([]string{"b", "a"}) != ViewKey([]string{"a", "b"}) {
		t.Fatal("ViewKey not canonical")
	}
}

func TestViewSamplerRespectsConditioning(t *testing.T) {
	// Build a tiny 2-attr view with a known joint and verify conditional
	// sampling honours fixed bins.
	rng := rand.New(rand.NewSource(11))
	s := singleTableFixture(rng, 500)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 8, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	p, err := Train(s, wl, map[string]int{"t": 500}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vm := p.exactView("t")
	if vm == nil {
		t.Skip("no single-table view in this workload")
	}
	vs := newViewSampler(vm)
	for trial := 0; trial < 50; trial++ {
		fixedAttr := rng.Intn(len(vm.Attrs))
		fixedBin := rng.Intn(vm.Attrs[fixedAttr].Disc.Bins())
		got := vs.sample(rng, map[int]int{fixedAttr: fixedBin})
		if got[fixedAttr] != fixedBin {
			t.Fatalf("conditioning violated: got %d want %d", got[fixedAttr], fixedBin)
		}
		for ai := range vm.Attrs {
			if _, ok := got[ai]; !ok {
				t.Fatalf("attr %d unassigned", ai)
			}
		}
	}
}

func TestPGMGenerationDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := singleTableFixture(rng, 300)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 6, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	p, err := Train(s, wl, map[string]int{"t": 300}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.Tables[0].Cols {
		for i := range a.Tables[0].Cols[ci].Data {
			if a.Tables[0].Cols[ci].Data[i] != b.Tables[0].Cols[ci].Data[i] {
				t.Fatal("same-seed PGM generation differs")
			}
		}
	}
	c, err := p.Generate(6)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for ci := range a.Tables[0].Cols {
		for i := range a.Tables[0].Cols[ci].Data {
			if a.Tables[0].Cols[ci].Data[i] != c.Tables[0].Cols[ci].Data[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical PGM output")
	}
}

func TestPGMSolverImprovesResidual(t *testing.T) {
	// The Kaczmarz solution must satisfy the cardinality constraints far
	// better than the uniform initialization.
	rng := rand.New(rand.NewSource(17))
	s := singleTableFixture(rng, 1000)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 8, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	p, err := Train(s, wl, map[string]int{"t": 1000}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range wl.Queries {
		got := engine.Card(gen, &wl.Queries[i].Query)
		q := metrics.QError(float64(got), float64(wl.Queries[i].Card))
		if q > worst {
			worst = q
		}
	}
	if worst > 8 {
		t.Fatalf("worst constraint Q-Error %.2f — solver not converging", worst)
	}
}
