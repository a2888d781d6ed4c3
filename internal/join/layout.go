// Package join maps a tree-structured schema onto the flat column layout of
// the full-outer-join (FOJ) distribution that SAM's autoregressive model
// learns: every table's content columns plus, per foreign-key table, a
// virtual fanout column (how many rows of the table share this join key?),
// following the NeuroCard-style join handling the paper adopts. The paper's
// indicator column I_T is folded into the fanout column as its zero bin —
// I_T = 0 exactly when F_T = 0, so a separate binary column would let a
// learned model place inconsistent mass on (I, F) pairs, while a single
// column cannot. The package also derives the identifier-column sets of
// Theorem 2 that drive Group-and-Merge join-key assignment.
package join

import (
	"fmt"
	"math"

	"sam/internal/relation"
)

// VirtualKind classifies a model column.
type VirtualKind int

const (
	// Content columns carry real attribute values.
	Content VirtualKind = iota
	// Fanout columns are the F_{T.key} virtual columns, bin-coded; bin 0
	// means the table has no rows for this join key (the paper's
	// indicator I_T = 0).
	Fanout
)

// String returns the kind name.
func (k VirtualKind) String() string {
	switch k {
	case Content:
		return "content"
	case Fanout:
		return "fanout"
	default:
		return fmt.Sprintf("VirtualKind(%d)", int(k))
	}
}

// ModelColumn is one column of the FOJ model, in autoregressive order.
type ModelColumn struct {
	Kind   VirtualKind
	Table  string        // owning table
	Column string        // content column name (Content only)
	Rel    relation.Kind // relation-level kind (Content only)
	Domain int           // number of model codes before intervalization
	// Bins maps fanout codes to representative fanout values (Fanout
	// only); Bins[0] == 0 is the absent bin.
	Bins []float64
	// Edges are the lower edges of the fanout bins (Fanout only).
	Edges []float64
	// WeightVals are the values inverse-probability weights divide by:
	// max(Bins, 1), so absent relations weigh like the paper's
	// fanout-set-to-1 NULL handling (Fanout only).
	WeightVals []float64
}

// Name returns a stable display name.
func (c ModelColumn) Name() string {
	switch c.Kind {
	case Content:
		return c.Table + "." + c.Column
	default:
		return "F(" + c.Table + ")"
	}
}

// DefaultFanoutBinEdges are the lower edges of the fanout bins: the absent
// bin (fanout 0), exact small fanouts (where most join mass lives), then
// geometric buckets. The model is query-driven, so true maximum fanouts
// are unknown a priori; the bins bound what the model can represent
// (documented substitution in DESIGN.md). Bin b covers
// [edge_b, edge_{b+1}); its representative value is the geometric midpoint
// of that range, which keeps inverse-probability weights nearly unbiased
// under coarse binning.
var DefaultFanoutBinEdges = []float64{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	18, 21, 24, 28, 32, 37, 43, 49, 57, 66, 76, 88, 101, 117, 128,
}

// fanoutRepresentatives converts bin edges to representative values.
func fanoutRepresentatives(edges []float64) []float64 {
	reps := make([]float64, len(edges))
	for i := range edges {
		if edges[i] == 0 {
			reps[i] = 0
			continue
		}
		if i+1 < len(edges) {
			// Geometric midpoint of [edge_i, edge_{i+1}−1].
			hi := edges[i+1] - 1
			if hi < edges[i] {
				hi = edges[i]
			}
			reps[i] = math.Sqrt(edges[i] * hi)
		} else {
			reps[i] = edges[i]
		}
	}
	return reps
}

// Layout is the FOJ model column layout for a schema.
type Layout struct {
	Schema *relation.Schema
	Cols   []ModelColumn

	contentIdx map[string]int // "table.col" → model index
	fanoutIdx  map[string]int // table → model index
}

// NewLayout builds the layout: tables in topological order; per FK table
// the fanout column first (so content conditionals see presence), then the
// content columns.
func NewLayout(s *relation.Schema) *Layout {
	l := &Layout{
		Schema:     s,
		contentIdx: make(map[string]int),
		fanoutIdx:  make(map[string]int),
	}
	for _, t := range s.Tables {
		if t.Parent != "" {
			edges := append([]float64(nil), DefaultFanoutBinEdges...)
			reps := fanoutRepresentatives(edges)
			weights := make([]float64, len(reps))
			for i, v := range reps {
				weights[i] = math.Max(v, 1)
			}
			l.fanoutIdx[t.Name] = len(l.Cols)
			l.Cols = append(l.Cols, ModelColumn{
				Kind: Fanout, Table: t.Name, Domain: len(edges),
				Bins: reps, Edges: edges, WeightVals: weights,
			})
		}
		for _, c := range t.Cols {
			l.contentIdx[t.Name+"."+c.Name] = len(l.Cols)
			l.Cols = append(l.Cols, ModelColumn{
				Kind: Content, Table: t.Name, Column: c.Name,
				Rel: c.Kind, Domain: c.NumValues,
			})
		}
	}
	return l
}

// NumCols returns the number of model columns.
func (l *Layout) NumCols() int { return len(l.Cols) }

// ContentIndex returns the model index of table.col.
func (l *Layout) ContentIndex(table, col string) int {
	idx, ok := l.contentIdx[table+"."+col]
	if !ok {
		panic(fmt.Sprintf("join: no content column %s.%s", table, col))
	}
	return idx
}

// FanoutIndex returns the model index of F_table, if the table has one
// (root tables do not).
func (l *Layout) FanoutIndex(table string) (int, bool) {
	idx, ok := l.fanoutIdx[table]
	return idx, ok
}

// ContentColumns returns the model indices of table's content columns, in
// schema order.
func (l *Layout) ContentColumns(table string) []int {
	t := l.Schema.Table(table)
	out := make([]int, 0, len(t.Cols))
	for _, c := range t.Cols {
		out = append(out, l.ContentIndex(table, c.Name))
	}
	return out
}

// FanoutCode bin-encodes a true fanout value; 0 encodes an absent relation
// (the paper's indicator 0).
func (l *Layout) FanoutCode(table string, fanout int64) int {
	idx, ok := l.fanoutIdx[table]
	if !ok {
		panic(fmt.Sprintf("join: table %s has no fanout column", table))
	}
	edges := l.Cols[idx].Edges
	if fanout < 0 {
		fanout = 0
	}
	f := float64(fanout)
	for i := len(edges) - 1; i >= 0; i-- {
		if f >= edges[i] {
			return i
		}
	}
	return 0
}

// IdentifierColumns returns the model indices of Identifier(T.pk) from
// Theorem 2: the content columns of {T} ∪ Ancestors(T) plus the fanout
// columns of every FK relation whose parent lies in that set, and of the
// tables in the set themselves (their zero bins carry the paper's
// indicator information). FOJ tuples sharing the primary key T.pk agree on
// all of these columns.
func (l *Layout) IdentifierColumns(table string) []int {
	group := map[string]bool{table: true}
	for _, a := range l.Schema.Ancestors(table) {
		group[a] = true
	}
	var out []int
	for i, c := range l.Cols {
		switch c.Kind {
		case Content:
			if group[c.Table] {
				out = append(out, i)
			}
		case Fanout:
			if group[l.Schema.Table(c.Table).Parent] || group[c.Table] {
				out = append(out, i)
			}
		}
	}
	return out
}

// DownweightColumns returns, for a connected query table set, the fanout
// model indices whose weight values the inverse-probability weight divides
// by: every FK table outside tables ∪ Ancestors(local root). For a single
// base relation T this is exactly the denominator of Eq. 4.
func (l *Layout) DownweightColumns(tables []string) []int {
	inSet := make(map[string]bool, len(tables))
	for _, t := range tables {
		inSet[t] = true
	}
	// Local root: table whose parent is outside the set.
	root := ""
	for _, t := range tables {
		p := l.Schema.Table(t).Parent
		if p == "" || !inSet[p] {
			root = t
			break
		}
	}
	keep := make(map[string]bool, len(tables))
	for _, t := range tables {
		keep[t] = true
	}
	if root != "" {
		for _, a := range l.Schema.Ancestors(root) {
			keep[a] = true
		}
	}
	var out []int
	for i, c := range l.Cols {
		if c.Kind == Fanout && !keep[c.Table] {
			out = append(out, i)
		}
	}
	return out
}

// PresenceConstraints returns the fanout model indices that must be
// nonzero for a query over the given table set (every FK table in the set
// participates in the join) — the paper's I_T = 1 constraints expressed on
// the merged columns.
func (l *Layout) PresenceConstraints(tables []string) []int {
	var out []int
	for _, t := range tables {
		if idx, ok := l.fanoutIdx[t]; ok {
			out = append(out, idx)
		}
	}
	return out
}
