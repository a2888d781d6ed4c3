package relation

import (
	"fmt"
	"sort"
)

// Schema is a database: a set of tables whose FK edges form a forest (the
// paper assumes a tree, i.e. an acyclic foreign-key join schema). Tables
// are kept in topological order, parents before children.
type Schema struct {
	Tables []*Table
	byName map[string]*Table
}

// NewSchema validates the tables form an acyclic parent tree and returns a
// schema with tables in topological order.
func NewSchema(tables ...*Table) (*Schema, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("relation: schema needs at least one table")
	}
	byName := make(map[string]*Table, len(tables))
	for _, t := range tables {
		if t.Name == "" {
			return nil, fmt.Errorf("relation: table with empty name")
		}
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate table %s", t.Name)
		}
		byName[t.Name] = t
	}
	for _, t := range tables {
		if t.Parent == "" {
			continue
		}
		if _, ok := byName[t.Parent]; !ok {
			return nil, fmt.Errorf("relation: table %s references unknown parent %s", t.Name, t.Parent)
		}
		// Walk up; a cycle revisits t.
		seen := map[string]bool{t.Name: true}
		for cur := t.Parent; cur != ""; cur = byName[cur].Parent {
			if seen[cur] {
				return nil, fmt.Errorf("relation: FK cycle through %s", cur)
			}
			seen[cur] = true
		}
	}
	// Topological order: repeatedly emit tables whose parent is emitted.
	ordered := make([]*Table, 0, len(tables))
	emitted := make(map[string]bool, len(tables))
	// Deterministic: sort names first.
	names := make([]string, 0, len(tables))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for len(ordered) < len(tables) {
		progressed := false
		for _, n := range names {
			t := byName[n]
			if emitted[n] {
				continue
			}
			if t.Parent == "" || emitted[t.Parent] {
				ordered = append(ordered, t)
				emitted[n] = true
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("relation: FK graph is not a forest")
		}
	}
	return &Schema{Tables: ordered, byName: byName}, nil
}

// MustSchema is NewSchema that panics on error; for tests and generators
// with statically known-good schemas.
func MustSchema(tables ...*Table) *Schema {
	s, err := NewSchema(tables...)
	if err != nil {
		panic(err)
	}
	return s
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.byName[name] }

// Children returns the tables whose parent is name, in topological order.
func (s *Schema) Children(name string) []*Table {
	var out []*Table
	for _, t := range s.Tables {
		if t.Parent == name {
			out = append(out, t)
		}
	}
	return out
}

// Ancestors returns the chain of ancestor table names of name, nearest
// first (empty for a root).
func (s *Schema) Ancestors(name string) []string {
	var out []string
	t := s.byName[name]
	if t == nil {
		return nil
	}
	for cur := t.Parent; cur != ""; cur = s.byName[cur].Parent {
		out = append(out, cur)
	}
	return out
}

// Roots returns the root tables (no parent).
func (s *Schema) Roots() []*Table {
	var out []*Table
	for _, t := range s.Tables {
		if t.Parent == "" {
			out = append(out, t)
		}
	}
	return out
}

// SingleTable reports whether the schema has exactly one table.
func (s *Schema) SingleTable() bool { return len(s.Tables) == 1 }

// Validate validates every table.
func (s *Schema) Validate() error {
	for _, t := range s.Tables {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}
