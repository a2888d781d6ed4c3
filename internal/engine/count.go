package engine

import (
	"fmt"
	"math"
	"slices"

	"sam/internal/relation"
	"sam/internal/workload"
)

// joinIndex resolves the foreign keys of a schema to parent rows once, so
// that exact counting runs on dense per-row arrays with no key lookup on
// its path. It holds one node per table, in the schema's topological
// order, and is read-only once built: Label and EvalWorkload share one
// across all their queries and goroutines.
//
// Counts are indexed by parent row and agree with joining on key values:
//   - A parent whose PKVals are nil or equal to the row index (every
//     datagen table and every generated table) resolves an FK to the row
//     it names, after a bounds check.
//   - Any other key set (permuted, sparse, repeated) is resolved through
//     one map from key value to the first row holding it. A child's count
//     accumulates at that first row and is then copied to every later row
//     with the same key, so each parent row of a repeated key joins all
//     of its children.
//   - An FK that names no parent row resolves to -1 and joins nothing.
type joinIndex []node

type node struct {
	t      *relation.Table
	parent int     // position of the parent table, -1 for a root
	up     []int32 // per row: first parent row holding its FK, or -1; nil if unresolved
	dup    []int32 // per row: first row holding its PK; nil unless a PK repeats
}

// newJoinIndex lays out s's tables and resolves the FK edges q joins: an
// edge whose child and parent q both names. A nil q resolves every edge.
func newJoinIndex(s *relation.Schema, q *workload.Query) joinIndex {
	ix := make(joinIndex, len(s.Tables))
	for i, t := range s.Tables {
		if t.NumRows() > math.MaxInt32 {
			panic(fmt.Sprintf("engine: table %s has %d rows, more than a row index holds", t.Name, t.NumRows()))
		}
		ix[i] = node{t: t, parent: -1}
	}
	for i, t := range s.Tables {
		if t.Parent != "" {
			ix[i].parent = ix.pos(t.Parent)
		}
	}
	joined := func(i int) bool { return q == nil || slices.Contains(q.Tables, ix[i].t.Name) }
	for p := range ix {
		var keys map[int64]int32
		resolved := false
		for c := range ix {
			if ix[c].parent != p || !joined(c) || !joined(p) {
				continue
			}
			if !resolved {
				keys, ix[p].dup = primaryKeys(ix[p].t)
				resolved = true
			}
			ix[c].up = resolveFK(ix[c].t.FK, ix[p].t.NumRows(), keys)
		}
	}
	return ix
}

// pos returns the position of the named table; it panics on an unknown
// name (queries are validated upstream).
func (ix joinIndex) pos(name string) int {
	for i := range ix {
		if ix[i].t.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("engine: unknown table %s", name))
}

// primaryKeys returns nil, nil when t's keys are its row indices.
// Otherwise keys maps each key value to the first row holding it, and dup,
// non-nil only when some key repeats, gives that first row for every row.
func primaryKeys(t *relation.Table) (keys map[int64]int32, dup []int32) {
	identity := true
	for i, pk := range t.PKVals {
		if pk != int64(i) {
			identity = false
			break
		}
	}
	if identity {
		return nil, nil
	}
	keys = make(map[int64]int32, len(t.PKVals))
	for i := len(t.PKVals) - 1; i >= 0; i-- {
		keys[t.PKVals[i]] = int32(i)
	}
	if len(keys) < len(t.PKVals) {
		dup = make([]int32, len(t.PKVals))
		for i, pk := range t.PKVals {
			dup[i] = keys[pk]
		}
	}
	return keys, dup
}

// resolveFK maps every FK value to its parent row: the value itself when
// keys is nil (the parent's keys are its row indices, n of them), else the
// row keys gives; -1 when the value names no parent row.
func resolveFK(fk []int64, n int, keys map[int64]int32) []int32 {
	up := make([]int32, len(fk))
	if keys == nil {
		for i, v := range fk {
			up[i] = -1
			if v >= 0 && v < int64(n) {
				up[i] = int32(v)
			}
		}
		return up
	}
	for i, v := range fk {
		r, ok := keys[v]
		if !ok {
			r = -1
		}
		up[i] = r
	}
	return up
}

// counter counts queries over a joinIndex. It owns the per-table buffers
// (filter masks and join counts) that one goroutine reuses from query to
// query; a counter is not safe for concurrent use, its index is.
type counter struct {
	ix     joinIndex
	in     []bool    // per table: named by the current query
	masks  [][]bool  // per table: rows passing the query's filters
	counts [][]int64 // per table: its subtree's join count per parent row
	// stack holds the count slices of the children being combined, one
	// frame per level of the recursion in childCounts.
	stack [][]int64
}

func newCounter(ix joinIndex) *counter {
	return &counter{
		ix:     ix,
		in:     make([]bool, len(ix)),
		masks:  make([][]bool, len(ix)),
		counts: make([][]int64, len(ix)),
		stack:  make([][]int64, 0, len(ix)),
	}
}

// card returns the number of rows of q's table matching its filters, or
// for a join query the inner equi-join size along the FK edges below the
// query's local root: its first table whose parent it does not name.
func (c *counter) card(q *workload.Query) int64 {
	clear(c.in)
	for _, name := range q.Tables {
		c.in[c.ix.pos(name)] = true
	}
	for _, name := range q.Tables {
		t := c.ix.pos(name)
		if p := c.ix[t].parent; p < 0 || !c.in[p] {
			return c.total(t, q.Preds, false)
		}
	}
	panic("engine: join query has no local root")
}

// fojSize returns the full outer join size of the tree under root, over
// every table.
func (c *counter) fojSize(root int) int64 {
	for i := range c.in {
		c.in[i] = true
	}
	return c.total(root, nil, true)
}

// total sums, over the rows of root passing preds, the number of joined
// tuples each row heads.
func (c *counter) total(root int, preds []workload.Predicate, outer bool) int64 {
	kids := c.childCounts(root, preds, outer)
	var n int64
	mask := c.filter(root, preds)
	if len(kids) == 0 {
		// A single table: the branch-free count of matches.
		for _, ok := range mask {
			if ok {
				n++
			}
		}
		return n
	}
	for i, ok := range mask {
		if ok {
			n += weight(kids, i, outer)
		}
	}
	c.stack = c.stack[:0]
	return n
}

// childCounts computes, for every participating child of table p, the
// join count of the child's subtree per row of p, and returns them as the
// top frame of c.stack. Each child row adds its own weight — the product
// of its children's counts at its row — to the parent row its FK
// resolved to.
func (c *counter) childCounts(p int, preds []workload.Predicate, outer bool) [][]int64 {
	base := len(c.stack)
	rows := c.ix[p].t.NumRows()
	for ch := range c.ix {
		if c.ix[ch].parent != p || !c.in[ch] {
			continue
		}
		mark := len(c.stack)
		kids := c.childCounts(ch, preds, outer)
		cnt := c.zeroed(ch, rows)
		up := c.ix[ch].up
		for i, ok := range c.filter(ch, preds) {
			if ok && up[i] >= 0 {
				cnt[up[i]] += weight(kids, i, outer)
			}
		}
		for i, first := range c.ix[p].dup {
			cnt[i] = cnt[first]
		}
		c.stack = append(c.stack[:mark], cnt)
	}
	return c.stack[base:]
}

// weight is the number of tuples row i heads in the join with its
// children, given their counts: the product of the counts, or for the
// full outer join of max(count, 1), since a row without children still
// appears once with NULLs in their place.
func weight(kids [][]int64, i int, outer bool) int64 {
	w := int64(1)
	for _, cnt := range kids {
		n := cnt[i]
		if outer {
			if n > 1 {
				w *= n
			}
			continue
		}
		w *= n
		if w == 0 {
			break
		}
	}
	return w
}

// filter evaluates preds on table t into its reused mask.
func (c *counter) filter(t int, preds []workload.Predicate) []bool {
	c.masks[t] = matchMask(c.masks[t], c.ix[t].t, preds)
	return c.masks[t]
}

// zeroed returns table t's count buffer resized to n zeroes.
func (c *counter) zeroed(t, n int) []int64 {
	buf := c.counts[t]
	if cap(buf) < n {
		buf = make([]int64, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	c.counts[t] = buf
	return buf
}
