package join

import (
	"math/rand"
	"sort"
)

// TupleSampler produces uniform samples of full-outer-join tuples encoded
// in a Layout's model-code space. SAM's trained model implements it (the
// paper's generation path, ar.BatchSampler); Oracle implements it from a
// concrete database (used for testing the generation algorithms in
// isolation and for ablations).
type TupleSampler interface {
	// SampleFOJBatch draws len(rngs) tuples; lane l consumes only rngs[l]
	// (its private stream, which keeps output independent of the batch
	// shape) and writes its codes to dst[l*NumCols():(l+1)*NumCols()].
	SampleFOJBatch(rngs []*rand.Rand, dst []int32)
}

// NullCode is the content code stored for columns of a table that is NULL
// (indicator 0) in a FOJ tuple. Queries always pair content constraints
// with an indicator-=1 constraint, so overloading code 0 is sound (see
// package documentation).
const NullCode int32 = 0

// Oracle samples uniform FOJ tuples directly from a database. Weights are
// subtree-expanded row multiplicities, so each full-outer-join tuple is
// equally likely.
type Oracle struct {
	L *Layout

	// rowsByKey[table][key] lists row indices of table joining key.
	rowsByKey map[string]map[int64][]int32
	// subW[table][row] is the FOJ tuple count of the subtree rooted at that
	// row; keySum[table][key] is the sum over rows joining key.
	subW   map[string][]float64
	keySum map[string]map[int64]float64
	// fanout[table][key] is the raw fanout count (rows of table per key).
	fanout map[string]map[int64]int64

	rootCum []float64 // cumulative root-row weights
}

// NewOracle precomputes sampling structures for the layout's schema.
func NewOracle(l *Layout) *Oracle {
	s := l.Schema
	o := &Oracle{
		L:         l,
		rowsByKey: make(map[string]map[int64][]int32),
		subW:      make(map[string][]float64),
		keySum:    make(map[string]map[int64]float64),
		fanout:    make(map[string]map[int64]int64),
	}
	// Bottom-up over reversed topological order.
	for i := len(s.Tables) - 1; i >= 0; i-- {
		t := s.Tables[i]
		n := t.NumRows()
		w := make([]float64, n)
		for r := 0; r < n; r++ {
			wr := 1.0
			pk := t.PK(r)
			for _, c := range s.Children(t.Name) {
				if sum := o.keySum[c.Name][pk]; sum > 1 {
					wr *= sum
				}
			}
			w[r] = wr
		}
		o.subW[t.Name] = w
		if t.Parent != "" {
			byKey := make(map[int64][]int32)
			sums := make(map[int64]float64)
			fans := make(map[int64]int64)
			for r := 0; r < n; r++ {
				k := t.FK[r]
				byKey[k] = append(byKey[k], int32(r))
				sums[k] += w[r]
				fans[k]++
			}
			o.rowsByKey[t.Name] = byKey
			o.keySum[t.Name] = sums
			o.fanout[t.Name] = fans
		}
	}
	root := s.Roots()[0]
	o.rootCum = make([]float64, root.NumRows())
	var cum float64
	for r, w := range o.subW[root.Name] {
		cum += w
		o.rootCum[r] = cum
	}
	return o
}

// FOJSize returns the total FOJ tuple count implied by the weights.
func (o *Oracle) FOJSize() float64 {
	if len(o.rootCum) == 0 {
		return 0
	}
	return o.rootCum[len(o.rootCum)-1]
}

// SampleFOJ draws one uniform full-outer-join tuple.
func (o *Oracle) SampleFOJ(rng *rand.Rand, dst []int32) {
	if len(dst) != o.L.NumCols() {
		panic("join: SampleFOJ dst has wrong length")
	}
	s := o.L.Schema
	root := s.Roots()[0]
	u := rng.Float64() * o.FOJSize()
	r := sort.SearchFloat64s(o.rootCum, u)
	if r >= len(o.rootCum) {
		r = len(o.rootCum) - 1
	}
	o.fillTable(rng, dst, root.Name, r)
}

// SampleFOJBatch draws one tuple per lane with SampleFOJ, lane by lane in
// order, so each tuple consumes exactly its own stream.
func (o *Oracle) SampleFOJBatch(rngs []*rand.Rand, dst []int32) {
	n := o.L.NumCols()
	if len(dst) != len(rngs)*n {
		panic("join: SampleFOJBatch dst has wrong length")
	}
	for l, rng := range rngs {
		o.SampleFOJ(rng, dst[l*n:(l+1)*n])
	}
}

// fillTable writes the codes of table's row r and recursively samples its
// children.
func (o *Oracle) fillTable(rng *rand.Rand, dst []int32, table string, r int) {
	s := o.L.Schema
	t := s.Table(table)
	for _, c := range t.Cols {
		dst[o.L.ContentIndex(table, c.Name)] = c.Data[r]
	}
	pk := t.PK(r)
	for _, child := range s.Children(table) {
		fidx, _ := o.L.FanoutIndex(child.Name)
		rows := o.rowsByKey[child.Name][pk]
		if len(rows) == 0 {
			o.fillNull(dst, child.Name)
			continue
		}
		dst[fidx] = int32(o.L.FanoutCode(child.Name, o.fanout[child.Name][pk]))
		// Sample one joining row proportional to its subtree weight.
		sum := o.keySum[child.Name][pk]
		u := rng.Float64() * sum
		w := o.subW[child.Name]
		pick := rows[len(rows)-1]
		var acc float64
		for _, rr := range rows {
			acc += w[rr]
			if u <= acc {
				pick = rr
				break
			}
		}
		o.fillTable(rng, dst, child.Name, int(pick))
	}
}

// fillNull marks table (and transitively its descendants) as absent in the
// tuple: fanout bin 0 (the merged indicator) and NullCode content.
func (o *Oracle) fillNull(dst []int32, table string) {
	s := o.L.Schema
	if idx, ok := o.L.FanoutIndex(table); ok {
		dst[idx] = 0
	}
	t := s.Table(table)
	for _, c := range t.Cols {
		dst[o.L.ContentIndex(table, c.Name)] = NullCode
	}
	for _, child := range s.Children(table) {
		o.fillNull(dst, child.Name)
	}
}
