package ar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sam/internal/join"
	"sam/internal/workload"
)

// TestQuickIntervalDiscretizerPartition: for arbitrary constants, the bins
// must partition [0, domain) exactly — every code lands in exactly one bin
// whose range contains it.
func TestQuickIntervalDiscretizerPartition(t *testing.T) {
	f := func(rawConsts []uint16, domSeed uint16) bool {
		domain := int(domSeed%500) + 2
		consts := make([]int32, 0, len(rawConsts))
		for _, c := range rawConsts {
			consts = append(consts, int32(int(c)%domain))
		}
		d := NewInterval(domain, consts)
		covered := 0
		for b := 0; b < d.Bins(); b++ {
			lo, hi := d.BinRange(b)
			if hi <= lo {
				return false
			}
			covered += int(hi - lo)
			for c := lo; c < hi; c++ {
				if d.BinOf(c) != b {
					return false
				}
			}
		}
		return covered == domain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMaskMassMatchesPredicate: the total fractional mass of a range
// predicate's mask equals the number of satisfying codes divided by bin
// widths — i.e. Σ mask_b · width_b == #satisfying codes.
func TestQuickMaskMassMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		domain := 2 + rng.Intn(400)
		nconsts := rng.Intn(6)
		consts := make([]int32, nconsts)
		for i := range consts {
			consts[i] = int32(rng.Intn(domain))
		}
		d := NewInterval(domain, consts)
		ops := []workload.Op{workload.LE, workload.GE, workload.EQ}
		p := workload.Predicate{Op: ops[rng.Intn(3)], Code: int32(rng.Intn(domain))}
		mask, ok := d.MaskForPredicates([]workload.Predicate{p}, domain)
		if !ok {
			t.Fatalf("trial %d: single range predicate reported empty", trial)
		}
		var mass float64
		for b, m := range mask {
			mass += m * float64(d.BinWidth(b))
		}
		var want float64
		for c := int32(0); c < int32(domain); c++ {
			if p.Matches(c) {
				want++
			}
		}
		if math.Abs(mass-want) > 1e-9 {
			t.Fatalf("trial %d: mask mass %v want %v (op %v code %d domain %d)",
				trial, mass, want, p.Op, p.Code, domain)
		}
	}
}

// TestQuickMaskINMassMatches: same conservation property for IN lists.
func TestQuickMaskINMassMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		domain := 4 + rng.Intn(200)
		d := NewInterval(domain, []int32{int32(rng.Intn(domain)), int32(rng.Intn(domain))})
		nin := 1 + rng.Intn(6)
		codes := make([]int32, nin)
		for i := range codes {
			codes[i] = int32(rng.Intn(domain))
		}
		p := workload.Predicate{Op: workload.IN, Codes: codes}
		mask, ok := d.MaskForPredicates([]workload.Predicate{p}, domain)
		if !ok {
			t.Fatalf("trial %d: nonempty IN reported empty", trial)
		}
		var mass float64
		for b, m := range mask {
			mass += m * float64(d.BinWidth(b))
		}
		distinct := map[int32]bool{}
		for _, c := range codes {
			distinct[c] = true
		}
		if math.Abs(mass-float64(len(distinct))) > 1e-9 {
			t.Fatalf("trial %d: IN mass %v want %d", trial, mass, len(distinct))
		}
	}
}

// TestEstimateUnconstrainedQueryIsPopulation: a query with a full-domain
// mask on every column must estimate the population exactly (all range
// probabilities are 1).
func TestEstimateUnconstrainedQueryIsPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := twoColTable(rng, 100)
	l := join.NewLayout(s)
	m := NewModel(l, nil, 100, DefaultConfig())
	spec := &Spec{
		Masks:      make([][]float64, l.NumCols()),
		Downweight: make([]bool, l.NumCols()),
	}
	got := m.EstimateSpec(5, spec, 4)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("unconstrained estimate %v want 100", got)
	}
}
