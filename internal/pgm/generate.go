package pgm

import (
	"fmt"
	"math/rand"
	"sort"

	"sam/internal/relation"
)

// viewSampler draws attribute-bin assignments from one ViewModel with
// memoized conditional distributions.
type viewSampler struct {
	vm *ViewModel
	// cache maps (clique, conditioning signature) → cumulative weights over
	// cells.
	cache map[string][]float64
	// bfs order of cliques from the junction tree (roots first).
	order []int
}

func newViewSampler(vm *ViewModel) *viewSampler {
	n := len(vm.Cliques)
	adj := make(map[int][]int)
	for _, e := range vm.Tree {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}
	visited := make([]bool, n)
	var order []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			order = append(order, c)
			next := append([]int(nil), adj[c]...)
			sort.Ints(next)
			for _, nb := range next {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return &viewSampler{vm: vm, cache: make(map[string][]float64), order: order}
}

// sample assigns a bin to every view attribute, honoring any fixed
// conditioning bins (attr index → bin; -1 or absent = free).
func (s *viewSampler) sample(rng *rand.Rand, fixed map[int]int) map[int]int {
	assigned := make(map[int]int, len(s.vm.Attrs))
	for k, v := range fixed {
		assigned[k] = v
	}
	for _, ci := range s.order {
		s.sampleClique(rng, ci, assigned)
	}
	// Attributes in no clique (isolated) are covered: every attr is in its
	// elimination clique, so all are assigned.
	return assigned
}

// sampleClique draws the unassigned attrs of clique ci conditioned on the
// already-assigned ones.
func (s *viewSampler) sampleClique(rng *rand.Rand, ci int, assigned map[int]int) {
	cl := s.vm.Cliques[ci]
	// Conditioning signature.
	sig := make([]byte, 0, len(cl)*3+2)
	sig = append(sig, byte(ci), byte(ci>>8))
	anyFree := false
	for _, ai := range cl {
		if b, ok := assigned[ai]; ok {
			sig = append(sig, 1, byte(b), byte(b>>8))
		} else {
			sig = append(sig, 0, 0, 0)
			anyFree = true
		}
	}
	if !anyFree {
		return
	}
	key := string(sig)
	cum, ok := s.cache[key]
	if !ok {
		joint := s.vm.Joint[ci]
		cum = make([]float64, len(joint))
		bins := make([]int, len(cl))
		var run float64
		for cell, w := range joint {
			s.vm.cellBins(ci, cell, bins)
			match := true
			for pos, ai := range cl {
				if b, okA := assigned[ai]; okA && bins[pos] != b {
					match = false
					break
				}
			}
			if match {
				run += w
			}
			cum[cell] = run
		}
		if run == 0 {
			// Fall back to uniform over matching cells.
			run = 0
			for cell := range joint {
				s.vm.cellBins(ci, cell, bins)
				match := true
				for pos, ai := range cl {
					if b, okA := assigned[ai]; okA && bins[pos] != b {
						match = false
						break
					}
				}
				if match {
					run++
				}
				cum[cell] = run
			}
		}
		s.cache[key] = cum
	}
	total := cum[len(cum)-1]
	bins := make([]int, len(cl))
	var cell int
	if total <= 0 {
		cell = rng.Intn(len(cum))
	} else {
		u := rng.Float64() * total
		cell = sort.SearchFloat64s(cum, u)
		if cell >= len(cum) {
			cell = len(cum) - 1
		}
	}
	s.vm.cellBins(ci, cell, bins)
	for pos, ai := range cl {
		if _, ok := assigned[ai]; !ok {
			assigned[ai] = bins[pos]
		}
	}
}

// Generate materializes a synthetic database: each table's content is
// sampled from its view model (uniform for unfiltered columns), and
// foreign keys are derived from pairwise views as in the paper's Figure 4.
func (p *PGM) Generate(seed int64) (*relation.Schema, error) {
	rng := rand.New(rand.NewSource(seed))
	samplers := make(map[string]*viewSampler)
	sampler := func(vm *ViewModel) *viewSampler {
		key := ViewKey(vm.Tables)
		if s, ok := samplers[key]; ok {
			return s
		}
		s := newViewSampler(vm)
		samplers[key] = s
		return s
	}

	out, err := p.Schema.Spec().EmptySchema()
	if err != nil {
		return nil, fmt.Errorf("pgm: %w", err)
	}
	for _, t := range p.Schema.Tables {
		cols := out.Table(t.Name).Cols
		vm := p.exactView(t.Name)
		if vm == nil {
			vm = p.viewFor(t.Name)
		}
		var vs *viewSampler
		if vm != nil {
			vs = sampler(vm)
		}
		size := p.Sizes[t.Name]
		for r := 0; r < size; r++ {
			var assigned map[int]int
			if vs != nil {
				assigned = vs.sample(rng, nil)
			}
			for ci, c := range t.Cols {
				code := int32(-1)
				if vm != nil {
					if ai, ok := vm.attrIdx[t.Name+"."+c.Name]; ok {
						code = vm.Attrs[ai].Disc.SampleIn(rng, assigned[ai])
					}
				}
				if code < 0 {
					code = int32(rng.Intn(c.NumValues))
				}
				cols[ci].Append(code)
			}
		}
	}

	// Foreign keys from pairwise views.
	for _, t := range p.Schema.Tables {
		if t.Parent == "" {
			continue
		}
		child := out.Table(t.Name)
		parent := out.Table(t.Parent)
		n := child.NumRows()
		child.FK = make([]int64, n)
		vm := p.viewFor(t.Name, t.Parent)
		if vm == nil {
			// No join view observed: uniform foreign keys.
			for i := range child.FK {
				child.FK[i] = int64(rng.Intn(parent.NumRows()))
			}
			continue
		}
		vs := sampler(vm)
		// Index parent rows by their view-attr bins.
		parentAttrs := make([]int, 0, len(vm.Attrs))
		childAttrs := make([]int, 0, len(vm.Attrs))
		for ai := range vm.Attrs {
			switch vm.Attrs[ai].Table {
			case t.Parent:
				parentAttrs = append(parentAttrs, ai)
			case t.Name:
				childAttrs = append(childAttrs, ai)
			}
		}
		index := make(map[string][]int64)
		sigBuf := make([]byte, 0, len(parentAttrs)*2)
		for r := 0; r < parent.NumRows(); r++ {
			sigBuf = sigBuf[:0]
			for _, ai := range parentAttrs {
				a := vm.Attrs[ai]
				b := a.Disc.BinOf(parent.Col(a.Column).Data[r])
				sigBuf = append(sigBuf, byte(b), byte(b>>8))
			}
			index[string(sigBuf)] = append(index[string(sigBuf)], int64(r))
		}
		for r := 0; r < n; r++ {
			fixed := make(map[int]int, len(childAttrs))
			for _, ai := range childAttrs {
				a := vm.Attrs[ai]
				fixed[ai] = a.Disc.BinOf(child.Col(a.Column).Data[r])
			}
			assigned := vs.sample(rng, fixed)
			sigBuf = sigBuf[:0]
			for _, ai := range parentAttrs {
				b := assigned[ai]
				sigBuf = append(sigBuf, byte(b), byte(b>>8))
			}
			if cands := index[string(sigBuf)]; len(cands) > 0 {
				child.FK[r] = cands[rng.Intn(len(cands))]
			} else {
				child.FK[r] = int64(rng.Intn(parent.NumRows()))
			}
		}
	}
	return out, nil
}

// exactView returns the view trained on exactly {table}, if any.
func (p *PGM) exactView(table string) *ViewModel {
	return p.Views[ViewKey([]string{table})]
}
