package relation

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ColumnSpec is the serializable description of a column.
type ColumnSpec struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"` // "categorical" or "numeric"
	Domain int       `json:"domain"`
	Vals   []float64 `json:"vals,omitempty"`
}

// TableSpec is the serializable description of a table (metadata only).
type TableSpec struct {
	Name    string       `json:"name"`
	Parent  string       `json:"parent,omitempty"`
	Rows    int          `json:"rows"`
	Columns []ColumnSpec `json:"columns"`
}

// SchemaSpec is the serializable description of a schema: everything a
// query-driven generator is allowed to know about the target database
// (names, types, domain sizes, row counts) without reading its data.
type SchemaSpec struct {
	Tables []TableSpec `json:"tables"`
}

// Spec extracts the metadata description of s.
func (s *Schema) Spec() SchemaSpec {
	spec := SchemaSpec{}
	for _, t := range s.Tables {
		ts := TableSpec{Name: t.Name, Parent: t.Parent, Rows: t.NumRows()}
		for _, c := range t.Cols {
			kind := "categorical"
			if c.Kind == Numeric {
				kind = "numeric"
			}
			ts.Columns = append(ts.Columns, ColumnSpec{Name: c.Name, Kind: kind, Domain: c.NumValues, Vals: c.Vals})
		}
		spec.Tables = append(spec.Tables, ts)
	}
	return spec
}

// WriteSpec serializes the spec as JSON.
func (spec SchemaSpec) WriteSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// ReadSpec parses a JSON schema spec.
func ReadSpec(r io.Reader) (SchemaSpec, error) {
	var spec SchemaSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return spec, fmt.Errorf("relation: decode spec: %w", err)
	}
	return spec, nil
}

// EmptySchema builds a schema with empty tables matching the spec — the
// shell a generator fills in.
func (spec SchemaSpec) EmptySchema() (*Schema, error) {
	tables := make([]*Table, 0, len(spec.Tables))
	for _, ts := range spec.Tables {
		cols := make([]*Column, 0, len(ts.Columns))
		for _, cs := range ts.Columns {
			kind := Categorical
			switch cs.Kind {
			case "categorical":
			case "numeric":
				kind = Numeric
			default:
				return nil, fmt.Errorf("relation: unknown column kind %q", cs.Kind)
			}
			if cs.Domain <= 0 {
				return nil, fmt.Errorf("relation: column %q has domain %d, want positive", cs.Name, cs.Domain)
			}
			if cs.Vals != nil && (len(cs.Vals) != cs.Domain || !sort.Float64sAreSorted(cs.Vals)) {
				return nil, fmt.Errorf("relation: column %q needs %d ascending vals, got %d", cs.Name, cs.Domain, len(cs.Vals))
			}
			c := NewColumn(cs.Name, kind, cs.Domain)
			if cs.Vals != nil {
				c = c.WithVals(cs.Vals)
			}
			cols = append(cols, c)
		}
		t := NewTable(ts.Name, cols...)
		t.Parent = ts.Parent
		tables = append(tables, t)
	}
	return NewSchema(tables...)
}

// Sizes returns the target row count per table from the spec.
func (spec SchemaSpec) Sizes() map[string]int {
	out := make(map[string]int, len(spec.Tables))
	for _, t := range spec.Tables {
		out[t.Name] = t.Rows
	}
	return out
}

// WriteCSV writes the table as CSV: one column per content attribute, plus
// __pk / __fk columns when present. It streams through the same
// CSVRowWriter the bounded-memory generation path uses, so both emit
// byte-identical files for identical rows.
func (t *Table) WriteCSV(w io.Writer) error {
	rw, err := NewCSVRowWriter(w, t, t.PKVals != nil)
	if err != nil {
		return err
	}
	codes := make([]int32, len(t.Cols))
	for i := 0; i < t.NumRows(); i++ {
		var pk, fk int64
		if t.PKVals != nil {
			pk = t.PKVals[i]
		}
		if t.Parent != "" {
			fk = t.FK[i]
		}
		for ci, c := range t.Cols {
			codes[ci] = c.Data[i]
		}
		if err := rw.WriteRow(pk, codes, fk); err != nil {
			return err
		}
	}
	return rw.Flush()
}

// ReadCSV fills an empty table (built from a spec) from CSV produced by
// WriteCSV. Input WriteCSV could not have written for t is an error, never
// a panic: a header that repeats a column, omits a content column, lacks
// __fk on a child table or carries it on a root; a row of another width; a
// field that is not an integer, or a code outside its column's domain. At
// EOF the filled table must pass Validate, so primary keys are unique.
func (t *Table) ReadCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relation: read csv header: %w", err)
	}
	const pkField, fkField = -1, -2
	colOf := make([]int, len(header)) // pkField, fkField, else column index
	seen := make(map[string]bool, len(header))
	for hi, h := range header {
		if seen[h] {
			return fmt.Errorf("relation: csv header of table %s repeats column %q", t.Name, h)
		}
		seen[h] = true
		switch h {
		case "__pk":
			colOf[hi] = pkField
			t.PKVals = []int64{}
		case "__fk":
			if t.Parent == "" {
				return fmt.Errorf("relation: csv header has __fk, but table %s is a root", t.Name)
			}
			colOf[hi] = fkField
		default:
			idx := t.ColIndex(h)
			if idx < 0 {
				return fmt.Errorf("relation: csv column %q not in table %s", h, t.Name)
			}
			colOf[hi] = idx
		}
	}
	for _, c := range t.Cols {
		if !seen[c.Name] {
			return fmt.Errorf("relation: csv header of table %s lacks column %q", t.Name, c.Name)
		}
	}
	if t.Parent != "" && !seen["__fk"] {
		return fmt.Errorf("relation: csv header of table %s lacks __fk", t.Name)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return t.Validate()
		}
		if err != nil {
			return fmt.Errorf("relation: read csv: %w", err)
		}
		for hi, field := range rec {
			switch colOf[hi] {
			case pkField, fkField:
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return fmt.Errorf("relation: csv key %q: %w", field, err)
				}
				if colOf[hi] == pkField {
					t.PKVals = append(t.PKVals, v)
				} else {
					t.FK = append(t.FK, v)
				}
			default:
				c := t.Cols[colOf[hi]]
				v, err := strconv.ParseInt(field, 10, 32)
				if err != nil {
					return fmt.Errorf("relation: csv column %s value %q: %w", c.Name, field, err)
				}
				if v < 0 || v >= int64(c.NumValues) {
					return fmt.Errorf("relation: csv column %s: code %d outside domain %d", c.Name, v, c.NumValues)
				}
				c.Data = append(c.Data, int32(v))
			}
		}
	}
}
