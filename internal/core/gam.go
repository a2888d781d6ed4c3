package core

import "sam/internal/join"

// keySpan records that a sample contributes the given fraction of its
// primary-key weight to one assigned key. A sample whose weight is below
// one key's share of its group's mass usually lands in a single span (it
// merges with neighbours into one key); a heavier sample represents
// several primary-key tuples and is split across several keys.
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
