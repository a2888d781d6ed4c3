package core

import (
	"math/rand"
	"time"

	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// keySpan records that a sample contributes the given fraction of its
// primary-key weight to one assigned key. A sample whose scaled weight is
// below 1 usually lands in a single span (it merges with neighbours into
// one key); a sample whose scaled weight exceeds 1 represents several
// primary-key tuples and is split across several keys.
type keySpan struct {
	key  int64
	frac float64
}

// majorityKey returns the span carrying the largest fraction.
func majorityKey(spans []keySpan) int64 {
	best := spans[0]
	for _, s := range spans[1:] {
		if s.frac > best.frac {
			best = s
		}
	}
	return best.key
}

// groupBins maps a sample's identifier-column bins to the coarser codes
// used for grouping: fanout bins collapse to log₂ buckets of their
// representative value. A learned model spreads probability mass over far
// more identifier combinations than the true data holds; grouping at full
// fanout precision would splinter that mass into groups too light to ever
// earn a key (Alg. 3's weight_sum ≥ 1 is then unreachable), silently
// dropping exactly the heavy-fanout tuples that dominate join sizes. This
// is the same failure mode — and the same remedy — as the paper's
// intervalization of numeric columns (§4.3.2): merge at a coarser
// granularity, keep exact values for the weights.
func (g *Generator) groupBins(row []int32, idCols []int, dst []int32) {
	for i, c := range idCols {
		col := &g.Layout.Cols[c]
		if col.Kind == join.Fanout {
			v := col.Bins[row[c]]
			bucket := int32(0)
			for v >= 2 {
				v /= 2
				bucket++
			}
			dst[i] = bucket
			continue
		}
		dst[i] = row[c]
	}
}

// materializeViews is the "SAM w/o Group-and-Merge" ablation: foreign keys
// are assigned from pairwise (parent, child) views as in the paper's
// Figure 4 — each child row picks a uniform parent key among generated
// parent rows whose content matches the child's sampled parent content,
// which preserves pairwise correlation but breaks the joint distribution
// across three or more relations. It is the one ablation-only path: it
// reads the set's samples resident and weights them as the merge does.
func (g *Generator) materializeViews(set *ShardSet, opts GenOptions) (*relation.Schema, error) {
	flat, err := set.readAll()
	if err != nil {
		return nil, err
	}
	tcs, err := g.weigh(set, make([]int32, rowsPerChunk*set.NCols), opts)
	if err != nil {
		return nil, err
	}
	mergeSpan := opts.Span.Child("merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("group_and_merge", false)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5a17))

	k, ncols := set.Total, set.NCols
	sample := func(i int) []int32 { return flat[i*ncols : (i+1)*ncols] }
	// sig packs the given columns of a sample into a map key.
	var codes []int32
	var keyBuf []byte
	sig := func(row []int32, cols []int) string {
		codes = codes[:0]
		for _, c := range cols {
			codes = append(codes, row[c])
		}
		keyBuf = packKey(keyBuf[:0], codes, 0)
		return string(keyBuf)
	}
	tables := g.newEmptyTables()
	pkBySig := make(map[string]map[string][]int64) // table → content signature → pks
	pkAll := make(map[string][]int64)

	for _, tc := range tcs {
		t := tc.t
		tStart := time.Now()
		out := tables[t.Name]
		contentCols := g.Layout.ContentColumns(t.Name)
		var parentContent []int
		if t.Parent != "" {
			parentContent = g.Layout.ContentColumns(t.Parent)
		}
		// Aggregate weights over samples with identical (content, parent
		// content) bins so rounding happens per distinct tuple signature,
		// matching Group-and-Merge's granularity.
		sigCols := make([]int, 0, len(contentCols)+len(parentContent))
		sigCols = append(append(sigCols, contentCols...), parentContent...)
		type agg struct {
			weight float64
			repr   int
		}
		order := make([]string, 0, k/4)
		aggs := make(map[string]*agg)
		for i := 0; i < k; i++ {
			w := g.sampleWeight(tc, sample(i))
			if w == 0 {
				continue
			}
			key := sig(sample(i), sigCols)
			a, ok := aggs[key]
			if !ok {
				a = &agg{repr: i}
				aggs[key] = a
				order = append(order, key)
			}
			a.weight += w
		}
		aggWeights := make([]float64, len(order))
		for ai, key := range order {
			aggWeights[ai] = aggs[key].weight
		}
		counts := systematicCounts(aggWeights, g.Sizes[t.Name])
		if tc.hasChildren {
			pkBySig[t.Name] = make(map[string][]int64)
			out.PKVals = make([]int64, 0, g.Sizes[t.Name])
		}
		var counter int64
		for ai, c := range counts {
			if c == 0 {
				continue
			}
			row := sample(aggs[order[ai]].repr)
			var cands []int64
			if t.Parent != "" {
				cands = pkBySig[t.Parent][sig(row, parentContent)]
				if len(cands) == 0 {
					cands = pkAll[t.Parent]
				}
			}
			for j := 0; j < c; j++ {
				g.decodeRow(rng, t, out.Cols, row)
				if t.Parent != "" {
					out.FK = append(out.FK, cands[rng.Intn(len(cands))])
				}
				if tc.hasChildren {
					pk := counter
					counter++
					out.PKVals = append(out.PKVals, pk)
					key := sig(row, contentCols)
					pkBySig[t.Name][key] = append(pkBySig[t.Name][key], pk)
					pkAll[t.Name] = append(pkAll[t.Name], pk)
				}
			}
		}
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "merge", Table: t.Name, Tuples: out.NumRows(),
			Groups: len(order), Wall: time.Since(tStart),
		})
	}
	return g.finishSchema(tables)
}
