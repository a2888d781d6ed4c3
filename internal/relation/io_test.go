package relation

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	a := NewTable("a",
		NewColumn("x", Categorical, 5),
		NewColumn("y", Numeric, 3).WithVals([]float64{1.5, 2.5, 9}))
	for i := 0; i < 4; i++ {
		a.Cols[0].Append(int32(i))
		a.Cols[1].Append(int32(i % 3))
	}
	b := NewTable("b", NewColumn("z", Categorical, 2))
	b.Parent = "a"
	b.Cols[0].Append(1)
	b.FK = []int64{2}
	s := MustSchema(a, b)

	var buf bytes.Buffer
	if err := s.Spec().WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	spec, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sizes()["a"] != 4 || spec.Sizes()["b"] != 1 {
		t.Fatalf("sizes %v", spec.Sizes())
	}
	shell, err := spec.EmptySchema()
	if err != nil {
		t.Fatal(err)
	}
	at := shell.Table("a")
	if at == nil || at.NumRows() != 0 || len(at.Cols) != 2 {
		t.Fatal("empty schema malformed")
	}
	if at.Col("y").Kind != Numeric || at.Col("y").Vals[2] != 9 {
		t.Fatal("numeric vals lost")
	}
	if shell.Table("b").Parent != "a" {
		t.Fatal("parent lost")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := NewTable("a", NewColumn("x", Categorical, 5))
	a.Parent = "p"
	a.PKVals = []int64{10, 11, 12}
	a.FK = []int64{0, 0, 1}
	for _, v := range []int32{4, 2, 0} {
		a.Cols[0].Append(v)
	}
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewTable("a", NewColumn("x", Categorical, 5))
	back.Parent = "p"
	if err := back.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 {
		t.Fatalf("rows %d", back.NumRows())
	}
	for i := range a.Cols[0].Data {
		if back.Cols[0].Data[i] != a.Cols[0].Data[i] {
			t.Fatal("content mismatch")
		}
		if back.PKVals[i] != a.PKVals[i] || back.FK[i] != a.FK[i] {
			t.Fatal("key mismatch")
		}
	}
}

func TestReadCSVRejectsUnknownColumn(t *testing.T) {
	back := NewTable("a", NewColumn("x", Categorical, 5))
	if err := back.ReadCSV(bytes.NewBufferString("zz\n1\n")); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestReadSpecRejectsBadKind(t *testing.T) {
	spec := SchemaSpec{Tables: []TableSpec{{
		Name:    "t",
		Columns: []ColumnSpec{{Name: "x", Kind: "weird", Domain: 2}},
	}}}
	if _, err := spec.EmptySchema(); err == nil {
		t.Fatal("bad kind accepted")
	}
}

// csvTables returns an empty root table (x: domain 5, y: domain 3) and an
// empty child table (z: domain 2) of it, as ReadCSV receives them.
func csvTables() (root, child *Table) {
	root = NewTable("a", NewColumn("x", Categorical, 5), NewColumn("y", Numeric, 3))
	child = NewTable("b", NewColumn("z", Categorical, 2))
	child.Parent = "a"
	return root, child
}

func TestReadCSVRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name  string
		child bool
		csv   string
	}{
		{"code_outside_domain", false, "x,y\n5,0\n"},
		{"negative_code", false, "x,y\n-1,0\n"},
		{"code_beyond_int32", false, "x,y\n4294967297,0\n"},
		{"header_repeats_column", false, "x,y,x\n1,0,2\n"},
		{"header_omits_column", false, "x\n1\n"},
		{"header_repeats_pk", false, "__pk,__pk,x,y\n0,0,1,0\n"},
		{"root_with_fk", false, "x,y,__fk\n1,0,0\n"},
		{"child_without_fk", true, "z\n1\n"},
		{"repeated_primary_key", true, "__pk,z,__fk\n7,0,0\n7,1,0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, child := csvTables()
			tab := root
			if tc.child {
				tab = child
			}
			if err := tab.ReadCSV(bytes.NewBufferString(tc.csv)); err == nil {
				t.Fatalf("accepted %q", tc.csv)
			}
		})
	}
}

// FuzzReadCSV checks the CSV loader errors or returns, never panics, and
// that an accepted table writes CSV that reads back and writes the same
// bytes again. child picks the child table of csvTables, else the root.
func FuzzReadCSV(f *testing.F) {
	f.Add(false, []byte("x,y\n0,0\n"))
	f.Add(true, []byte("__pk,z,__fk\n0,0,0\n"))
	f.Fuzz(func(t *testing.T, child bool, data []byte) {
		read := func(src []byte) (*Table, error) {
			root, ch := csvTables()
			tab := root
			if child {
				tab = ch
			}
			return tab, tab.ReadCSV(bytes.NewReader(src))
		}
		write := func(tab *Table) []byte {
			var buf bytes.Buffer
			if err := tab.WriteCSV(&buf); err != nil {
				t.Fatalf("accepted table does not write: %v", err)
			}
			return buf.Bytes()
		}
		tab, err := read(data)
		if err != nil {
			return
		}
		first := write(tab)
		again, err := read(first)
		if err != nil {
			t.Fatalf("written CSV rejected: %v\n%s", err, first)
		}
		if second := write(again); !bytes.Equal(first, second) {
			t.Fatalf("CSV changed across a round trip:\n%s\n%s", first, second)
		}
	})
}

// FuzzReadSpec checks ReadSpec followed by EmptySchema errors or returns,
// never panics, and that an accepted spec builds a schema whose Spec has
// the input's tables (parent included) and columns. Row counts are not
// compared: the built tables are empty.
func FuzzReadSpec(f *testing.F) {
	f.Add(`{"tables": [
  {"name": "a", "rows": 4, "columns": [
    {"name": "x", "kind": "categorical", "domain": 5},
    {"name": "y", "kind": "numeric", "domain": 3, "vals": [1.5, 2.5, 9]}]},
  {"name": "b", "parent": "a", "rows": 1, "columns": [
    {"name": "z", "kind": "categorical", "domain": 2}]}]}`)
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ReadSpec(strings.NewReader(text))
		if err != nil {
			return
		}
		s, err := spec.EmptySchema()
		if err != nil {
			return
		}
		got := s.Spec()
		if len(got.Tables) != len(spec.Tables) {
			t.Fatalf("schema has %d tables, spec %d", len(got.Tables), len(spec.Tables))
		}
		built := make(map[string]TableSpec, len(got.Tables))
		for _, ts := range got.Tables {
			built[ts.Name] = ts
		}
		for _, want := range spec.Tables {
			ts, ok := built[want.Name]
			if !ok || ts.Parent != want.Parent || len(ts.Columns) != len(want.Columns) {
				t.Fatalf("table %q built as %+v, spec %+v", want.Name, ts, want)
			}
			for i, c := range want.Columns {
				b := ts.Columns[i]
				if b.Name != c.Name || b.Kind != c.Kind || b.Domain != c.Domain || !slices.Equal(b.Vals, c.Vals) {
					t.Fatalf("table %q column %d built as %+v, spec %+v", want.Name, i, b, c)
				}
			}
		}
	})
}
