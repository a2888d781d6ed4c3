package ar

import (
	"math/rand"
	"sort"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/metrics"
	"sam/internal/relation"
	"sam/internal/workload"
)

// bigDomainTable builds a single relation with one huge numeric column —
// the regime intervalization exists for.
func bigDomainTable(rng *rand.Rand, rows, domain int) *relation.Schema {
	c1 := relation.NewColumn("v", relation.Numeric, domain)
	c2 := relation.NewColumn("k", relation.Categorical, 4)
	for i := 0; i < rows; i++ {
		v := int32(rng.Intn(domain))
		c1.Append(v)
		c2.Append(v % 4)
	}
	return relation.MustSchema(relation.NewTable("t", c1, c2))
}

// TestIntervalizationShrinksModel: with intervalization the model's input
// dimension collapses from the raw domain to the number of workload
// constants, as §4.3.2 describes.
func TestIntervalizationShrinksModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := bigDomainTable(rng, 500, 5000)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 30, workload.DefaultSingleRelationOptions())
	wl := engine.Label(s, queries)

	on := DefaultConfig()
	on.Intervalize = true
	off := DefaultConfig()
	off.Intervalize = false
	// inDim is a model's one-hot input width, the sum of its bin counts.
	inDim := func(m *Model) int {
		var n int
		for _, d := range m.Disc {
			n += d.Bins()
		}
		return n
	}
	dOn, dOff := inDim(NewModel(l, wl, 500, on)), inDim(NewModel(l, wl, 500, off))
	if dOn >= dOff {
		t.Fatalf("intervalization did not shrink input: %d vs %d", dOn, dOff)
	}
	if dOff < 5000 {
		t.Fatalf("raw model should carry the full domain, has %d", dOff)
	}
}

// TestProgressiveSamplesReduceTrainingNoise: averaging two progressive
// chains per query must train at least as well as one chain on the same
// budget of epochs (checked loosely via training-set Q-Error).
func TestProgressiveSamplesReduceTrainingNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := bigDomainTable(rng, 800, 64)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 60, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}

	medianFor := func(ps int) float64 {
		cfg := DefaultTrainConfig()
		cfg.Epochs = 30
		cfg.ProgressiveSamples = ps
		cfg.Model.Hidden = 24
		cfg.Seed = 3
		m, err := Train(l, wl, 800, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var qe []float64
		for qi := range wl.Queries {
			est, err := m.Estimate(SplitSeed(4, qi), &wl.Queries[qi].Query, 8)
			if err != nil {
				t.Fatal(err)
			}
			qe = append(qe, metrics.QError(est, float64(wl.Queries[qi].Card)))
		}
		sort.Float64s(qe)
		return qe[len(qe)/2]
	}
	m1 := medianFor(1)
	m2 := medianFor(2)
	if m2 > m1*1.6 {
		t.Fatalf("2 progressive samples much worse than 1: %.2f vs %.2f", m2, m1)
	}
}

// TestFanoutPriorInstalls: a fresh model's fanout logits must decrease
// with the bin value (the 1/v² prior), so undertrained sampling cannot
// explode joins.
func TestFanoutPriorInstalls(t *testing.T) {
	aCol := relation.NewColumn("a", relation.Categorical, 2)
	aCol.Append(0)
	a := relation.NewTable("A", aCol)
	bCol := relation.NewColumn("b", relation.Categorical, 2)
	bCol.Append(0)
	b := relation.NewTable("B", bCol)
	b.Parent = "A"
	b.FK = []int64{0}
	s := relation.MustSchema(a, b)
	l := join.NewLayout(s)
	m := NewModel(l, nil, 2, DefaultConfig())

	fi, _ := l.FanoutIndex("B")
	bias := m.Net.OutputBias()
	off := m.Net.Offsets()[fi]
	bins := l.Cols[fi].Bins
	// Bins 0 (absent) and 1 (fanout 1) share the flat prior; it must decay
	// strictly beyond that.
	if bias.Data[off] != bias.Data[off+1] {
		t.Fatalf("absent and unit bins should share the prior: %v vs %v",
			bias.Data[off], bias.Data[off+1])
	}
	for i := 2; i < len(bins); i++ {
		if bias.Data[off+i] >= bias.Data[off+i-1] {
			t.Fatalf("fanout prior not monotone at bin %d: %v vs %v",
				i, bias.Data[off+i], bias.Data[off+i-1])
		}
	}
}

// TestTauAffectsSampling: a lower Gumbel temperature must still train and
// produce a valid model (smoke ablation for the DPS temperature).
func TestTauAffectsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := bigDomainTable(rng, 300, 32)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 30, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	for _, tau := range []float64{0.3, 1.0, 2.0} {
		cfg := DefaultTrainConfig()
		cfg.Epochs = 5
		cfg.Tau = tau
		cfg.Model.Hidden = 16
		if _, err := Train(l, wl, 300, cfg); err != nil {
			t.Fatalf("tau=%v: %v", tau, err)
		}
	}
}
