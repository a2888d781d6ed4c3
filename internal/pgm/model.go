package pgm

import (
	"fmt"
	"sort"
	"strings"

	"sam/internal/ar"
	"sam/internal/relation"
	"sam/internal/workload"
)

// Config controls the PGM baseline.
type Config struct {
	// SolverSweeps is the number of full Kaczmarz sweeps over the linear
	// system.
	SolverSweeps int
	// MaxCells bounds the joint-table size of a single clique; exceeding it
	// is an error (the complexity wall the paper describes).
	MaxCells int
	Seed     int64
}

// DefaultConfig returns a configuration suitable for the small workloads
// PGM can handle.
func DefaultConfig() Config {
	return Config{SolverSweeps: 400, MaxCells: 4_000_000, Seed: 1}
}

// attrInfo is one filtered attribute of a view.
type attrInfo struct {
	Table  string
	Column string
	Domain int
	Disc   *ar.Discretizer
}

func (a attrInfo) key() string { return a.Table + "." + a.Column }

// ViewModel is the PGM of one view (a distinct joined-table set in the
// workload): maximal-clique joint distributions over intervalized filtered
// attributes, fit to the view's cardinality constraints.
type ViewModel struct {
	Tables  []string // sorted
	Attrs   []attrInfo
	attrIdx map[string]int
	Cliques [][]int    // sorted attr indices, maximal
	Tree    []treeEdge // junction tree
	Joint   [][]float64
	// Population is the view's total row count (|T| or the inner-join
	// size), the normalization constant of the cardinality constraints.
	Population float64
}

// ViewKey canonicalizes a table set: the sorted table names joined by
// "|".
func ViewKey(tables []string) string {
	ts := append([]string(nil), tables...)
	sort.Strings(ts)
	return strings.Join(ts, "|")
}

// buildViewModel constructs and fits one view's PGM.
func buildViewModel(s *relation.Schema, tables []string, queries []workload.CardQuery,
	population float64, cfg Config) (*ViewModel, error) {
	ts := append([]string(nil), tables...)
	sort.Strings(ts)
	vm := &ViewModel{Tables: ts, attrIdx: make(map[string]int), Population: population}

	// Collect filtered attributes and their constants.
	constants := make(map[string][]int32)
	for qi := range queries {
		for _, p := range queries[qi].Preds {
			key := p.Table + "." + p.Column
			if _, ok := vm.attrIdx[key]; !ok {
				col := s.Table(p.Table).Col(p.Column)
				vm.attrIdx[key] = len(vm.Attrs)
				vm.Attrs = append(vm.Attrs, attrInfo{Table: p.Table, Column: p.Column, Domain: col.NumValues})
			}
			if p.Op == workload.IN {
				constants[key] = append(constants[key], p.Codes...)
			} else {
				constants[key] = append(constants[key], p.Code)
			}
		}
	}
	if len(vm.Attrs) == 0 {
		return nil, fmt.Errorf("pgm: view %v has no filtered attributes", ts)
	}
	for i := range vm.Attrs {
		vm.Attrs[i].Disc = ar.NewInterval(vm.Attrs[i].Domain, constants[vm.Attrs[i].key()])
	}

	// Markov network: co-filtered attributes are connected.
	g := newGraph(len(vm.Attrs))
	var idxs []int
	for qi := range queries {
		idxs = idxs[:0]
		seen := map[int]bool{}
		for _, p := range queries[qi].Preds {
			idx := vm.attrIdx[p.Table+"."+p.Column]
			if !seen[idx] {
				seen[idx] = true
				idxs = append(idxs, idx)
			}
		}
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				g.addEdge(idxs[i], idxs[j])
			}
		}
	}
	chordal, order := chordalize(g)
	vm.Cliques = maximalCliques(chordal, order)
	vm.Tree = junctionTree(vm.Cliques)

	// Allocate clique joints.
	vm.Joint = make([][]float64, len(vm.Cliques))
	for ci, cl := range vm.Cliques {
		cells := 1
		for _, ai := range cl {
			cells *= vm.Attrs[ai].Disc.Bins()
			if cells > cfg.MaxCells {
				return nil, fmt.Errorf("pgm: clique over %v exceeds %d cells", cl, cfg.MaxCells)
			}
		}
		joint := make([]float64, cells)
		uniform := 1 / float64(cells)
		for i := range joint {
			joint[i] = uniform
		}
		vm.Joint[ci] = joint
	}

	if err := vm.solve(queries, cfg); err != nil {
		return nil, err
	}
	return vm, nil
}

// cellBins decodes a flat cell index of clique ci into per-attr bins (in
// clique order).
func (vm *ViewModel) cellBins(ci int, cell int, out []int) {
	cl := vm.Cliques[ci]
	for i := len(cl) - 1; i >= 0; i-- {
		bins := vm.Attrs[cl[i]].Disc.Bins()
		out[i] = cell % bins
		cell /= bins
	}
}

// cliqueFor returns the smallest clique containing all attr indices, or -1.
func (vm *ViewModel) cliqueFor(idxs []int) int {
	best, bestSize := -1, 1<<30
	for ci, cl := range vm.Cliques {
		if subsetOf(idxs, cl) && len(cl) < bestSize {
			best, bestSize = ci, len(cl)
		}
	}
	return best
}

// PGM is the full baseline: one ViewModel per distinct table set in the
// workload.
type PGM struct {
	Schema *relation.Schema
	Views  map[string]*ViewModel
	Sizes  map[string]int
	cfg    Config
}

// Train fits the PGM baseline. populations maps each multi-table view's
// ViewKey to its total size; single-table views default to the table's
// target size from sizes.
func Train(s *relation.Schema, wl *workload.Workload, sizes map[string]int,
	populations map[string]float64, cfg Config) (*PGM, error) {
	if wl.Len() == 0 {
		return nil, fmt.Errorf("pgm: empty workload")
	}
	byView := make(map[string][]workload.CardQuery)
	for _, q := range wl.Queries {
		byView[ViewKey(q.Tables)] = append(byView[ViewKey(q.Tables)], q)
	}
	p := &PGM{Schema: s, Views: make(map[string]*ViewModel), Sizes: sizes, cfg: cfg}
	keys := make([]string, 0, len(byView))
	for k := range byView {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		queries := byView[key]
		tables := strings.Split(key, "|")
		pop, ok := populations[key]
		if !ok {
			if len(tables) == 1 {
				pop = float64(sizes[tables[0]])
			} else {
				return nil, fmt.Errorf("pgm: missing population for view %s", key)
			}
		}
		if pop <= 0 {
			// An empty view constrains nothing; skip it.
			continue
		}
		vm, err := buildViewModel(s, tables, queries, pop, cfg)
		if err != nil {
			return nil, err
		}
		p.Views[key] = vm
	}
	return p, nil
}

// viewFor returns the smallest trained view whose table set contains all
// of tables, or nil. Views are scanned in sorted key order so ties resolve
// deterministically.
func (p *PGM) viewFor(tables ...string) *ViewModel {
	keys := make([]string, 0, len(p.Views))
	for k := range p.Views {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var best *ViewModel
	for _, k := range keys {
		vm := p.Views[k]
		ok := true
		for _, t := range tables {
			found := false
			for _, vt := range vm.Tables {
				if vt == t {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok && (best == nil || len(vm.Tables) < len(best.Tables)) {
			best = vm
		}
	}
	return best
}
