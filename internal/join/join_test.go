package join

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/engine"
	"sam/internal/relation"
)

// paperSchema reconstructs the flavor of the paper's Figure 3: root A with
// FK children B and C.
func paperSchema() *relation.Schema {
	aCol := relation.NewColumn("a", relation.Categorical, 2) // m=0, n=1
	for _, v := range []int32{0, 0, 1, 1} {
		aCol.Append(v)
	}
	a := relation.NewTable("A", aCol)

	bCol := relation.NewColumn("b", relation.Categorical, 3) // a,b,c
	b := relation.NewTable("B", bCol)
	b.Parent = "A"
	for i, v := range []int32{0, 1, 2} {
		bCol.Append(v)
		_ = i
	}
	b.FK = []int64{0, 1, 1} // B.x values 1,2,2 (0-indexed keys)

	cCol := relation.NewColumn("c", relation.Categorical, 2) // i,j
	c := relation.NewTable("C", cCol)
	c.Parent = "A"
	for _, v := range []int32{0, 1, 0, 1} {
		cCol.Append(v)
	}
	c.FK = []int64{0, 0, 1, 1}

	return relation.MustSchema(a, b, c)
}

func TestLayoutColumnOrderAndLookups(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	// A: content a. B: fanout, content b. C: same. Total 5.
	if l.NumCols() != 5 {
		t.Fatalf("NumCols = %d want 5", l.NumCols())
	}
	if idx := l.ContentIndex("A", "a"); l.Cols[idx].Kind != Content || l.Cols[idx].Table != "A" {
		t.Fatal("bad content lookup for A.a")
	}
	if _, ok := l.FanoutIndex("A"); ok {
		t.Fatal("root table must have no fanout")
	}
	for _, name := range []string{"B", "C"} {
		fi, ok := l.FanoutIndex(name)
		if !ok || l.Cols[fi].Kind != Fanout {
			t.Fatalf("bad fanout for %s", name)
		}
		if l.Cols[fi].Bins[0] != 0 || l.Cols[fi].WeightVals[0] != 1 {
			t.Fatalf("fanout absent bin malformed for %s", name)
		}
	}
	if got := len(l.ContentColumns("A")); got != 1 {
		t.Fatalf("ContentColumns(A) = %d", got)
	}
}

func TestFanoutCodeRoundTrip(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	fb, _ := l.FanoutIndex("B")
	edges := l.Cols[fb].Edges
	for _, f := range []int64{1, 2, 3, 7, 8, 9, 15, 63, 100, 500} {
		code := l.FanoutCode("B", f)
		if float64(f) < edges[code] {
			t.Fatalf("fanout %d below its bin edge %v", f, edges[code])
		}
		if code+1 < len(edges) && edges[code+1] <= float64(f) {
			t.Fatalf("fanout %d not in tightest bin (code %d)", f, code)
		}
		// The representative must lie inside the bin's range.
		v := l.Cols[fb].Bins[code]
		if v < edges[code] {
			t.Fatalf("representative %v below edge %v", v, edges[code])
		}
		if code+1 < len(edges) && v >= edges[code+1] {
			t.Fatalf("representative %v beyond next edge %v", v, edges[code+1])
		}
	}
	if l.FanoutCode("B", 0) != 0 || l.Cols[fb].Bins[0] != 0 {
		t.Fatal("fanout 0 must land in the absent bin")
	}
	// Small fanouts are exact (the last exact edge is 15; 16 falls in the
	// first geometric bucket [16, 18)).
	for f := int64(1); f <= 15; f++ {
		if got := l.Cols[fb].Bins[l.FanoutCode("B", f)]; got != float64(f) {
			t.Fatalf("fanout %d not exact: representative %v", f, got)
		}
	}
}

func TestIdentifierColumnsMatchPaperExample(t *testing.T) {
	// Identifier(A.x) = {A.a, F_B, F_C} plus any indicators of the group —
	// the paper lists {A.a, I_A, F_B.x, F_C.x}; the root carries no
	// indicator here because it is always present under FK constraints.
	s := paperSchema()
	l := NewLayout(s)
	got := l.IdentifierColumns("A")
	want := map[int]bool{
		l.ContentIndex("A", "a"): true,
	}
	fb, _ := l.FanoutIndex("B")
	fc, _ := l.FanoutIndex("C")
	want[fb] = true
	want[fc] = true
	if len(got) != len(want) {
		t.Fatalf("Identifier(A) = %v want %v", got, want)
	}
	for _, idx := range got {
		if !want[idx] {
			t.Fatalf("unexpected identifier column %d (%s)", idx, l.Cols[idx].Name())
		}
	}
}

func TestIdentifierColumnsDeepTree(t *testing.T) {
	// root ← b ← d; root ← c. Identifier(d) must include content+indicators
	// of {d, b, root} and fanouts of every FK table whose parent is in that
	// set: b (parent root), c (parent root), d (parent b).
	mk := func(name string, rows int, parent string, parentRows int) *relation.Table {
		col := relation.NewColumn("v", relation.Categorical, 3)
		for i := 0; i < rows; i++ {
			col.Append(int32(i % 3))
		}
		t := relation.NewTable(name, col)
		t.Parent = parent
		if parent != "" {
			t.FK = make([]int64, rows)
			for i := range t.FK {
				t.FK[i] = int64(i % parentRows)
			}
		}
		return t
	}
	root := mk("root", 4, "", 0)
	b := mk("b", 6, "root", 4)
	c := mk("c", 5, "root", 4)
	d := mk("d", 7, "b", 6)
	s := relation.MustSchema(root, b, c, d)
	l := NewLayout(s)
	got := map[int]bool{}
	for _, idx := range l.IdentifierColumns("d") {
		got[idx] = true
	}
	mustHave := []int{l.ContentIndex("d", "v"), l.ContentIndex("b", "v"), l.ContentIndex("root", "v")}
	for _, name := range []string{"b", "c", "d"} {
		fi, _ := l.FanoutIndex(name)
		mustHave = append(mustHave, fi)
	}
	for _, idx := range mustHave {
		if !got[idx] {
			t.Fatalf("Identifier(d) missing %s", l.Cols[idx].Name())
		}
	}
	// c's content must NOT be an identifier of d.
	if got[l.ContentIndex("c", "v")] {
		t.Fatal("Identifier(d) wrongly includes c's content")
	}
}

func TestDownweightColumns(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	fb, _ := l.FanoutIndex("B")
	fc, _ := l.FanoutIndex("C")

	// Base relation A (root): divide by both children's fanouts.
	got := l.DownweightColumns([]string{"A"})
	if len(got) != 2 {
		t.Fatalf("DownweightColumns(A) = %v", got)
	}
	// Base relation B: A is B's ancestor, so only F_C divides.
	got = l.DownweightColumns([]string{"B"})
	if len(got) != 1 || got[0] != fc {
		t.Fatalf("DownweightColumns(B) = %v want [%d]", got, fc)
	}
	// View {A, B}: only F_C divides.
	got = l.DownweightColumns([]string{"A", "B"})
	if len(got) != 1 || got[0] != fc {
		t.Fatalf("DownweightColumns(A,B) = %v want [%d]", got, fc)
	}
	// Full set: nothing divides.
	if got = l.DownweightColumns([]string{"A", "B", "C"}); len(got) != 0 {
		t.Fatalf("DownweightColumns(all) = %v", got)
	}
	_ = fb
}

func TestPresenceConstraints(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	if got := l.PresenceConstraints([]string{"A"}); len(got) != 0 {
		t.Fatalf("constraints for root-only query: %v", got)
	}
	got := l.PresenceConstraints([]string{"A", "B", "C"})
	if len(got) != 2 {
		t.Fatalf("constraints for full join: %v", got)
	}
}

func TestOracleFOJSizeMatchesEngine(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	if int64(o.FOJSize()) != engine.FOJSize(s) {
		t.Fatalf("oracle FOJ %v engine %d", o.FOJSize(), engine.FOJSize(s))
	}
}

func TestOracleSamplesMatchFOJDistribution(t *testing.T) {
	// On the paper-style schema, the FOJ marginal of A.a is computable by
	// hand; sampled frequencies must converge to it.
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	rng := rand.New(rand.NewSource(42))
	const n = 60000
	dst := make([]int32, l.NumCols())
	aIdx := l.ContentIndex("A", "a")
	counts := map[int32]int{}
	for i := 0; i < n; i++ {
		o.SampleFOJ(rng, dst)
		counts[dst[aIdx]]++
	}
	// Exact FOJ multiplicities per root row: row0 (a=m): maxF_B(0)=1,
	// F_C(0)=2 → 2; row1 (a=m): F_B=2, F_C=2 → 4; rows 2,3 (a=n): no B, no
	// C → 1 each. FOJ size 8; P(a=m) = 6/8.
	foj := o.FOJSize()
	wantM := 6.0 / foj
	gotM := float64(counts[0]) / n
	if math.Abs(gotM-wantM) > 0.01 {
		t.Fatalf("P(a=m) sampled %v want %v", gotM, wantM)
	}
}

func TestOracleNullHandling(t *testing.T) {
	// Root rows 2 and 3 have no children; when sampled, indicators must be
	// 0 and fanout codes must encode value 1.
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	rng := rand.New(rand.NewSource(7))
	dst := make([]int32, l.NumCols())
	aIdx := l.ContentIndex("A", "a")
	fb, _ := l.FanoutIndex("B")
	fc, _ := l.FanoutIndex("C")
	sawNull := false
	for i := 0; i < 2000; i++ {
		o.SampleFOJ(rng, dst)
		if dst[aIdx] == 1 { // a=n rows have no children
			sawNull = true
			if dst[fb] != 0 || dst[fc] != 0 {
				t.Fatalf("absent children must use the zero fanout bin: %d %d", dst[fb], dst[fc])
			}
		} else {
			if dst[fb] == 0 || dst[fc] == 0 {
				t.Fatalf("joined children must have nonzero fanout bins: %d %d", dst[fb], dst[fc])
			}
		}
	}
	if !sawNull {
		t.Fatal("never sampled a NULL-extended tuple")
	}
}

func TestOracleFanoutCodesAreConsistent(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	rng := rand.New(rand.NewSource(8))
	dst := make([]int32, l.NumCols())
	aIdx := l.ContentIndex("A", "a")
	bIdx := l.ContentIndex("B", "b")
	fb, _ := l.FanoutIndex("B")
	for i := 0; i < 2000; i++ {
		o.SampleFOJ(rng, dst)
		// Root row 1 (a=m, B rows {b,c}) has B-fanout 2; root row 0 has 1.
		if dst[aIdx] == 0 && dst[bIdx] == 0 { // B.b == a ⇒ root row 0
			if l.Cols[fb].Bins[dst[fb]] != 1 {
				t.Fatal("fanout of key 0 should be 1")
			}
		}
		if dst[bIdx] == 1 || dst[bIdx] == 2 { // rows joining key 1
			if l.Cols[fb].Bins[dst[fb]] != 2 {
				t.Fatal("fanout of key 1 should be 2")
			}
		}
	}
}

func TestEnumerateFOJCountsAndNulls(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	flat := o.EnumerateFOJ()
	ncols := l.NumCols()
	if len(flat) != int(o.FOJSize())*ncols {
		t.Fatalf("enumerated %d codes want %d", len(flat), int(o.FOJSize())*ncols)
	}
	// Count tuples with a=m (code 0): must be 6 of 8 (see sampling test).
	aIdx := l.ContentIndex("A", "a")
	var m int
	for i := 0; i+ncols <= len(flat); i += ncols {
		if flat[i+aIdx] == 0 {
			m++
		}
	}
	if m != 6 {
		t.Fatalf("enumeration has %d a=m tuples, want 6", m)
	}
}

func TestEnumerateFOJDeepTree(t *testing.T) {
	// root ← b ← d plus root ← c: enumeration size must equal the engine's
	// analytic FOJ size.
	rng := rand.New(rand.NewSource(33))
	mk := func(name string, rows int, parent string, parentRows int) *relation.Table {
		col := relation.NewColumn("v", relation.Categorical, 4)
		tt := relation.NewTable(name, col)
		tt.Parent = parent
		for i := 0; i < rows; i++ {
			col.Append(int32(rng.Intn(4)))
			if parent != "" {
				tt.FK = append(tt.FK, int64(rng.Intn(parentRows)))
			}
		}
		return tt
	}
	root := mk("root", 5, "", 0)
	b := mk("b", 8, "root", 5)
	c := mk("c", 6, "root", 5)
	d := mk("d", 9, "b", 8)
	s := relation.MustSchema(root, b, c, d)
	l := NewLayout(s)
	o := NewOracle(l)
	flat := o.EnumerateFOJ()
	want := engine.FOJSize(s)
	if got := int64(len(flat) / l.NumCols()); got != want {
		t.Fatalf("enumerated %d tuples want %d", got, want)
	}
}

func TestLayoutPanicsOnUnknownNames(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	for name, fn := range map[string]func(){
		"ContentIndex": func() { l.ContentIndex("A", "nope") },
		"FanoutCode":   func() { l.FanoutCode("A", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted unknown target", name)
				}
			}()
			fn()
		}()
	}
}

func TestOracleSampleWrongLengthPanics(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.SampleFOJ(rand.New(rand.NewSource(1)), make([]int32, 2))
}

// TestOracleSampleFOJBatchMatchesPerTuple pins the Oracle's TupleSampler
// contract: lane l of a batch draws exactly what SampleFOJ draws from the
// same stream, so batching never changes Oracle output.
func TestOracleSampleFOJBatchMatchesPerTuple(t *testing.T) {
	s := paperSchema()
	l := NewLayout(s)
	o := NewOracle(l)
	n := l.NumCols()
	const lanes = 5
	rngs := make([]*rand.Rand, lanes)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(int64(70 + k)))
	}
	got := make([]int32, lanes*n)
	for sweep := 0; sweep < 3; sweep++ {
		o.SampleFOJBatch(rngs, got)
	}
	want := make([]int32, n)
	for k := 0; k < lanes; k++ {
		rng := rand.New(rand.NewSource(int64(70 + k)))
		for sweep := 0; sweep < 3; sweep++ {
			o.SampleFOJ(rng, want)
		}
		for i, v := range want {
			if got[k*n+i] != v {
				t.Fatalf("lane %d col %d: batch %d vs per-tuple %d", k, i, got[k*n+i], v)
			}
		}
	}
}
