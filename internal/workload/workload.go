// Package workload models query workloads: conjunctive predicates over
// content columns, optional foreign-key joins over a connected subtree of
// the schema, and the (query, cardinality) pairs SAM trains from. It also
// implements the workload generators the paper describes in §5.1.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sam/internal/relation"
)

// Op is a predicate operator. The paper supports range constraints (≤, ≥),
// equality, and IN clauses.
type Op int

const (
	// LE matches codes ≤ the literal.
	LE Op = iota
	// GE matches codes ≥ the literal.
	GE
	// EQ matches codes equal to the literal.
	EQ
	// IN matches codes contained in the literal set.
	IN
)

// String returns the SQL-style operator symbol.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	case IN:
		return "IN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a constraint on one content column of one table. Literals
// are value codes (see relation.Column).
type Predicate struct {
	Table  string  `json:"table"`
	Column string  `json:"column"`
	Op     Op      `json:"op"`
	Code   int32   `json:"code,omitempty"`
	Codes  []int32 `json:"codes,omitempty"` // IN only
}

// Matches reports whether a value code satisfies the predicate.
func (p *Predicate) Matches(code int32) bool {
	switch p.Op {
	case LE:
		return code <= p.Code
	case GE:
		return code >= p.Code
	case EQ:
		return code == p.Code
	case IN:
		for _, c := range p.Codes {
			if c == code {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("workload: unknown op %v", p.Op))
	}
}

// Range returns the inclusive code interval [lo, hi] implied by the
// predicate for interval-based reasoning, and ok=false for IN predicates
// (which are unions of points).
func (p *Predicate) Range(domain int) (lo, hi int32, ok bool) {
	switch p.Op {
	case LE:
		return 0, p.Code, true
	case GE:
		return p.Code, int32(domain - 1), true
	case EQ:
		return p.Code, p.Code, true
	default:
		return 0, 0, false
	}
}

// Query is a conjunction of predicates over a set of joined relations. The
// relations must form a connected subtree of the schema's join tree; the
// join conditions are implied by the schema's FK edges (the paper's
// assumption that join keys are never filtered).
type Query struct {
	Tables []string    `json:"tables"`
	Preds  []Predicate `json:"preds"`
}

// Validate checks the query against the schema: known tables, columns and
// operators, literals in domain, connected join subtree.
func (q *Query) Validate(s *relation.Schema) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("workload: query with no tables")
	}
	inQuery := make(map[string]bool, len(q.Tables))
	for _, name := range q.Tables {
		if s.Table(name) == nil {
			return fmt.Errorf("workload: unknown table %s", name)
		}
		if inQuery[name] {
			return fmt.Errorf("workload: duplicate table %s", name)
		}
		inQuery[name] = true
	}
	if len(q.Tables) > 1 {
		// Connectivity on the join tree: every table except one must have
		// its parent in the query (a connected subtree of a tree has
		// exactly one "local root").
		localRoots := 0
		for _, name := range q.Tables {
			parent := s.Table(name).Parent
			if parent == "" || !inQuery[parent] {
				localRoots++
			}
		}
		if localRoots != 1 {
			return fmt.Errorf("workload: tables %v do not form a connected join subtree", q.Tables)
		}
	}
	for _, p := range q.Preds {
		if !inQuery[p.Table] {
			return fmt.Errorf("workload: predicate on table %s not in query", p.Table)
		}
		col := s.Table(p.Table).Col(p.Column)
		if col == nil {
			return fmt.Errorf("workload: unknown column %s.%s", p.Table, p.Column)
		}
		check := func(code int32) error {
			if code < 0 || int(code) >= col.NumValues {
				return fmt.Errorf("workload: literal %d outside domain of %s.%s", code, p.Table, p.Column)
			}
			return nil
		}
		switch p.Op {
		case LE, GE, EQ:
			if err := check(p.Code); err != nil {
				return err
			}
		case IN:
			if len(p.Codes) == 0 {
				return fmt.Errorf("workload: empty IN list on %s.%s", p.Table, p.Column)
			}
			for _, c := range p.Codes {
				if err := check(c); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("workload: unknown op %v on %s.%s", p.Op, p.Table, p.Column)
		}
	}
	return nil
}

// String renders the query as JSON.
func (q *Query) String() string {
	b, _ := json.Marshal(q)
	return string(b)
}

// CardQuery is a query together with its observed cardinality — one
// cardinality constraint of the input workload.
type CardQuery struct {
	Query
	Card int64 `json:"card"`
}

// Workload is an ordered list of cardinality constraints.
type Workload struct {
	Queries []CardQuery `json:"queries"`
}

// Len returns the number of constraints.
func (w *Workload) Len() int { return len(w.Queries) }

// Prefix returns a workload containing the first n constraints (or all,
// when n exceeds the length). The underlying slice is shared.
func (w *Workload) Prefix(n int) *Workload {
	if n > len(w.Queries) {
		n = len(w.Queries)
	}
	return &Workload{Queries: w.Queries[:n]}
}

// TableSets returns the distinct joined-relation sets appearing in the
// workload (sorted for determinism) — the "views" a PGM baseline must model
// separately.
func (w *Workload) TableSets() [][]string {
	seen := map[string][]string{}
	for i := range w.Queries {
		ts := append([]string(nil), w.Queries[i].Tables...)
		sort.Strings(ts)
		key := fmt.Sprint(ts)
		if _, ok := seen[key]; !ok {
			seen[key] = ts
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// Write serializes the workload as JSON.
func (w *Workload) Write(out io.Writer) error {
	enc := json.NewEncoder(out)
	return enc.Encode(w)
}

// Read deserializes a workload written by Write.
func Read(in io.Reader) (*Workload, error) {
	var w Workload
	if err := json.NewDecoder(in).Decode(&w); err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	return &w, nil
}
