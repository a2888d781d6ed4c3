// Package relation defines the relational data model shared by the whole
// repository: discrete-domain columns, tables with tree-structured foreign
// keys, and schemas. Following the SAM paper, every content column is a
// finite discrete domain — categorical columns are value codes, numeric
// columns are codes ordered by their numeric value (code order == value
// order), which is what the model's intervalization operates on.
package relation

import (
	"fmt"
	"slices"
	"sort"
)

// Kind distinguishes categorical from numeric columns. Numeric columns are
// still stored as ordered codes; the distinction drives intervalization in
// the model and the uniform-in-interval decoding at generation time.
type Kind int

const (
	// Categorical columns have unordered finite domains.
	Categorical Kind = iota
	// Numeric columns have ordered domains: code i corresponds to the i-th
	// smallest value.
	Numeric
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is a single attribute: a name, a kind, a finite domain of
// NumValues codes, and per-row data. For numeric columns Vals optionally
// maps codes to real values (ascending); when nil, the code itself is the
// value.
type Column struct {
	Name      string
	Kind      Kind
	NumValues int
	Data      []int32
	Vals      []float64 // optional, numeric only, ascending, len == NumValues
}

// NewColumn returns an empty column with the given domain size.
func NewColumn(name string, kind Kind, numValues int) *Column {
	if numValues <= 0 {
		panic(fmt.Sprintf("relation: column %q needs a positive domain, got %d", name, numValues))
	}
	return &Column{Name: name, Kind: kind, NumValues: numValues}
}

// WithVals attaches a code→value mapping (numeric columns). The slice must
// be ascending and of length NumValues.
func (c *Column) WithVals(vals []float64) *Column {
	if len(vals) != c.NumValues {
		panic(fmt.Sprintf("relation: column %q: %d vals for domain %d", c.Name, len(vals), c.NumValues))
	}
	if !sort.Float64sAreSorted(vals) {
		panic(fmt.Sprintf("relation: column %q: vals not ascending", c.Name))
	}
	c.Vals = vals
	return c
}

// Value decodes a code into its numeric value (the code itself when no
// mapping is attached).
func (c *Column) Value(code int32) float64 {
	if c.Vals != nil {
		return c.Vals[code]
	}
	return float64(code)
}

// Append adds one row value to the column.
func (c *Column) Append(code int32) {
	if code < 0 || int(code) >= c.NumValues {
		panic(fmt.Sprintf("relation: column %q: code %d outside domain %d", c.Name, code, c.NumValues))
	}
	c.Data = append(c.Data, code)
}

// Table is a relation: named content columns plus optional tree join keys.
// A table has at most one parent (acyclic FK schema, as in the paper);
// FK[i] holds the parent primary-key value of row i. PK values default to
// the row index; generated tables may carry explicit PKVals.
//
// Multi-key equi-joins are represented by a single surrogate key per edge
// (a composite key is encoded as one surrogate value), which preserves join
// semantics for the algorithms in this repository.
type Table struct {
	Name   string
	Cols   []*Column
	Parent string  // "" for a root table
	FK     []int64 // len == NumRows when Parent != ""
	PKVals []int64 // optional explicit primary-key values
}

// NewTable returns a table over the given columns.
func NewTable(name string, cols ...*Column) *Table {
	return &Table{Name: name, Cols: cols}
}

// NumRows returns the row count (taken from the first column).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return len(t.PKVals)
	}
	return len(t.Cols[0].Data)
}

// Col returns the column with the given name, or nil.
func (t *Table) Col(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PK returns the primary-key value of row i.
func (t *Table) PK(i int) int64 {
	if t.PKVals != nil {
		return t.PKVals[i]
	}
	return int64(i)
}

// Validate checks internal consistency: equal column lengths, codes in
// domain, FK length, and PKVals of the row count with no value repeated.
func (t *Table) Validate() error {
	n := t.NumRows()
	for _, c := range t.Cols {
		if len(c.Data) != n {
			return fmt.Errorf("relation: table %s: column %s has %d rows, want %d", t.Name, c.Name, len(c.Data), n)
		}
		for i, code := range c.Data {
			if code < 0 || int(code) >= c.NumValues {
				return fmt.Errorf("relation: table %s: column %s row %d code %d outside domain %d", t.Name, c.Name, i, code, c.NumValues)
			}
		}
	}
	if t.Parent != "" && len(t.FK) != n {
		return fmt.Errorf("relation: table %s: FK has %d rows, want %d", t.Name, len(t.FK), n)
	}
	if t.PKVals != nil && len(t.PKVals) != n {
		return fmt.Errorf("relation: table %s: PKVals has %d rows, want %d", t.Name, len(t.PKVals), n)
	}
	if pk, dup := repeatedKey(t.PKVals); dup {
		return fmt.Errorf("relation: table %s: primary key %d repeats", t.Name, pk)
	}
	return nil
}

// repeatedKey reports a value that occurs more than once in keys. Keys
// already in order, as every generated table writes them, are checked in
// place; others on a sorted copy.
func repeatedKey(keys []int64) (int64, bool) {
	if !slices.IsSorted(keys) {
		keys = slices.Clone(keys)
		slices.Sort(keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return keys[i], true
		}
	}
	return 0, false
}
