// Package indep is the classic strawman the paper's §2.3 argument is
// aimed at: a generator that fits **independent per-column histograms**
// from single-column cardinality constraints and samples every column
// independently (foreign keys uniformly). It exists as a third comparator
// for the experiments: SAM and the PGM baseline must both beat it wherever
// columns correlate, and the gap quantifies how much of the task is about
// joint structure rather than marginals.
package indep

import (
	"fmt"
	"math/rand"
	"sort"

	"sam/internal/relation"
	"sam/internal/workload"
)

// Model holds one fitted histogram per column of every table.
type Model struct {
	Schema *relation.Schema
	Sizes  map[string]int
	// hist["table.column"] is a probability vector over the column's raw
	// codes.
	hist map[string][]float64
}

// Train fits per-column histograms. Every predicate contributes its
// query's selectivity as a mass observation on the satisfying codes
// (heavier filters are discounted by the query's other predicates under
// the independence assumption itself); columns never filtered stay
// uniform.
func Train(s *relation.Schema, wl *workload.Workload, sizes map[string]int) (*Model, error) {
	if wl.Len() == 0 {
		return nil, fmt.Errorf("indep: empty workload")
	}
	m := &Model{Schema: s, Sizes: sizes, hist: map[string][]float64{}}
	// Accumulate, per column, interval constraints (lo, hi, selectivity)
	// from single-predicate queries — the only constraints an independence
	// model can consume exactly.
	type obs struct {
		lo, hi int32
		sel    float64
	}
	colObs := map[string][]obs{}
	for qi := range wl.Queries {
		cq := &wl.Queries[qi]
		if len(cq.Preds) != 1 || len(cq.Tables) != 1 {
			continue
		}
		p := cq.Preds[0]
		size := sizes[p.Table]
		if size <= 0 {
			continue
		}
		col := s.Table(p.Table).Col(p.Column)
		lo, hi, ok := p.Range(col.NumValues)
		if !ok {
			continue
		}
		key := p.Table + "." + p.Column
		colObs[key] = append(colObs[key], obs{lo, hi, float64(cq.Card) / float64(size)})
	}
	for _, t := range s.Tables {
		for _, c := range t.Cols {
			key := t.Name + "." + c.Name
			h := make([]float64, c.NumValues)
			obsList := colObs[key]
			if len(obsList) == 0 {
				for i := range h {
					h[i] = 1 / float64(c.NumValues)
				}
				m.hist[key] = h
				continue
			}
			// Fit: piecewise-constant density from the interval
			// constraints via a simple sweep — sort boundary points,
			// assign each elementary segment the average selectivity
			// density of the constraints covering it, then normalize.
			cuts := map[int32]bool{0: true, int32(c.NumValues): true}
			for _, o := range obsList {
				cuts[o.lo] = true
				cuts[o.hi+1] = true
			}
			bounds := make([]int32, 0, len(cuts))
			for v := range cuts {
				bounds = append(bounds, v)
			}
			sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
			for bi := 0; bi+1 < len(bounds); bi++ {
				lo, hi := bounds[bi], bounds[bi+1]
				var density, n float64
				for _, o := range obsList {
					if o.lo <= lo && hi-1 <= o.hi {
						density += o.sel / float64(o.hi-o.lo+1)
						n++
					}
				}
				if n > 0 {
					density /= n
				} else {
					density = 1 / float64(c.NumValues)
				}
				for v := lo; v < hi; v++ {
					h[v] = density
				}
			}
			var sum float64
			for _, v := range h {
				sum += v
			}
			if sum <= 0 {
				for i := range h {
					h[i] = 1 / float64(c.NumValues)
				}
			} else {
				for i := range h {
					h[i] /= sum
				}
			}
			m.hist[key] = h
		}
	}
	return m, nil
}

// Generate samples every column independently from its histogram; foreign
// keys are uniform over the parent.
func (m *Model) Generate(seed int64) (*relation.Schema, error) {
	rng := rand.New(rand.NewSource(seed))
	out, err := m.Schema.Spec().EmptySchema()
	if err != nil {
		return nil, err
	}
	for _, t := range m.Schema.Tables {
		nt := out.Table(t.Name)
		cols := nt.Cols
		cums := make([][]float64, len(t.Cols))
		for i, c := range t.Cols {
			h := m.hist[t.Name+"."+c.Name]
			cum := make([]float64, len(h))
			var run float64
			for j, p := range h {
				run += p
				cum[j] = run
			}
			cums[i] = cum
		}
		size := m.Sizes[t.Name]
		for r := 0; r < size; r++ {
			for i := range cols {
				u := rng.Float64() * cums[i][len(cums[i])-1]
				j := sort.SearchFloat64s(cums[i], u)
				if j >= len(cums[i]) {
					j = len(cums[i]) - 1
				}
				cols[i].Append(int32(j))
			}
			if t.Parent != "" {
				nt.FK = append(nt.FK, int64(rng.Intn(m.Sizes[t.Parent])))
			}
		}
	}
	return out, nil
}
