package relation

import (
	"strings"
	"testing"
)

func TestColumnAppendAndValue(t *testing.T) {
	c := NewColumn("age", Numeric, 3).WithVals([]float64{18, 30, 65})
	c.Append(0)
	c.Append(2)
	if len(c.Data) != 2 {
		t.Fatalf("len = %d", len(c.Data))
	}
	if c.Value(2) != 65 {
		t.Fatalf("Value(2) = %v", c.Value(2))
	}
	plain := NewColumn("k", Categorical, 4)
	if plain.Value(3) != 3 {
		t.Fatalf("default Value = %v", plain.Value(3))
	}
}

func TestColumnAppendOutOfDomainPanics(t *testing.T) {
	c := NewColumn("x", Categorical, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Append(2)
}

func TestColumnBadValsPanics(t *testing.T) {
	for _, vals := range [][]float64{{1, 2}, {3, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewColumn("x", Numeric, 3).WithVals(vals)
		}()
	}
}

func mkTable(name string, rows int, parent string) *Table {
	c := NewColumn("a", Categorical, 10)
	for i := 0; i < rows; i++ {
		c.Append(int32(i % 10))
	}
	t := NewTable(name, c)
	t.Parent = parent
	if parent != "" {
		t.FK = make([]int64, rows)
	}
	return t
}

func TestTableBasics(t *testing.T) {
	tab := mkTable("t", 5, "")
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Col("a") == nil || tab.Col("b") != nil {
		t.Fatal("Col lookup broken")
	}
	if tab.ColIndex("a") != 0 || tab.ColIndex("zz") != -1 {
		t.Fatal("ColIndex broken")
	}
	if tab.PK(3) != 3 {
		t.Fatal("implicit PK broken")
	}
	tab.PKVals = []int64{10, 11, 12, 13, 14}
	if tab.PK(3) != 13 {
		t.Fatal("explicit PK broken")
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableValidateRejectsRepeatedPrimaryKey(t *testing.T) {
	tab := mkTable("t", 4, "")
	tab.PKVals = []int64{9, 3, 7, 3}
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "primary key 3 repeats") {
		t.Fatalf("err = %v", err)
	}
	tab.PKVals = []int64{9, 3, 7, 4}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableValidateCatchesMismatch(t *testing.T) {
	tab := mkTable("t", 4, "p")
	tab.FK = tab.FK[:2]
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "FK") {
		t.Fatalf("err = %v", err)
	}
	tab2 := NewTable("u", NewColumn("a", Categorical, 2), NewColumn("b", Categorical, 2))
	tab2.Cols[0].Append(0)
	if err := tab2.Validate(); err == nil {
		t.Fatal("expected length mismatch error")
	}
	tab3 := NewTable("v", NewColumn("a", Categorical, 2))
	tab3.Cols[0].Data = []int32{5} // bypass Append check
	if err := tab3.Validate(); err == nil {
		t.Fatal("expected domain error")
	}
}

func TestSchemaTopoOrderAndLookups(t *testing.T) {
	a := mkTable("a", 3, "")
	b := mkTable("b", 3, "a")
	c := mkTable("c", 3, "b")
	d := mkTable("d", 3, "a")
	s, err := NewSchema(c, d, b, a) // shuffled input
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, tab := range s.Tables {
		pos[tab.Name] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"] && pos["a"] < pos["d"]) {
		t.Fatalf("bad topo order: %v", pos)
	}
	if s.Table("b") != b || s.Table("zz") != nil {
		t.Fatal("Table lookup broken")
	}
	kids := s.Children("a")
	if len(kids) != 2 {
		t.Fatalf("children of a: %d", len(kids))
	}
	anc := s.Ancestors("c")
	if len(anc) != 2 || anc[0] != "b" || anc[1] != "a" {
		t.Fatalf("ancestors of c: %v", anc)
	}
	if len(s.Roots()) != 1 || s.Roots()[0] != a {
		t.Fatal("Roots broken")
	}
	if s.SingleTable() {
		t.Fatal("SingleTable wrong")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaRejectsBadShapes(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema accepted")
	}
	a := mkTable("a", 1, "")
	a2 := mkTable("a", 1, "")
	if _, err := NewSchema(a, a2); err == nil {
		t.Fatal("duplicate accepted")
	}
	orphan := mkTable("x", 1, "nope")
	if _, err := NewSchema(orphan); err == nil {
		t.Fatal("unknown parent accepted")
	}
	// 2-cycle.
	p := mkTable("p", 1, "q")
	q := mkTable("q", 1, "p")
	if _, err := NewSchema(p, q); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustSchema()
}
