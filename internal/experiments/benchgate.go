package experiments

import (
	"fmt"
	"maps"
	"sort"
)

// CompareBench checks a fresh tensorbench report against a committed
// baseline and returns one violation string per breach (empty = gate
// passes). Reports recorded with different matmul worker counts are not
// comparable — the parallel kernels allocate, so every row would read as
// allocation growth — and yield that one violation alone. Otherwise the
// classes of breach are:
//
//   - a benchmark present in the baseline is missing from the current run;
//   - ns/op regressed by more than tol (0.25 = fail beyond +25%);
//   - allocs/op grew at all — the hot paths are pinned allocation-free, so
//     any growth is a leak, not noise;
//   - a named speedup ratio (e.g. sample_batched's speedup over its
//     recorded per-tuple baseline) fell below its required floor.
//
// vectorMin holds floors that assume the AVX2 twins; they apply only when
// the current report ran them. Only allocation counts transfer across
// machines exactly; ns/op and the speedups over recorded baselines assume
// comparable hardware, which is why the tolerance is wide and the floors
// sit well below measured.
func CompareBench(baseline, current *TensorBenchReport, tol float64, minSpeedup, vectorMin map[string]float64) []string {
	if current.Workers != baseline.Workers {
		return []string{fmt.Sprintf("not comparable: current run used %d matmul workers, baseline %d (record both at the same GOMAXPROCS)",
			current.Workers, baseline.Workers)}
	}
	cur := map[string]*TensorBenchResult{}
	for i := range current.Results {
		cur[current.Results[i].Name] = &current.Results[i]
	}
	var out []string
	for i := range baseline.Results {
		b := &baseline.Results[i]
		c, ok := cur[b.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline but missing from current run", b.Name))
			continue
		}
		if limit := float64(b.NsOp) * (1 + tol); float64(c.NsOp) > limit {
			out = append(out, fmt.Sprintf("%s: ns/op regressed %d → %d (tolerance %.0f%% allows ≤ %.0f)",
				b.Name, b.NsOp, c.NsOp, tol*100, limit))
		}
		if c.AllocsOp > b.AllocsOp {
			out = append(out, fmt.Sprintf("%s: allocs/op grew %d → %d", b.Name, b.AllocsOp, c.AllocsOp))
		}
	}
	floors := map[string]float64{}
	maps.Copy(floors, minSpeedup)
	if current.VectorKernels {
		maps.Copy(floors, vectorMin)
	}
	for name, min := range floors {
		c, ok := cur[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: speedup floor %.2fx set but benchmark missing from current run", name, min))
			continue
		}
		if c.Speedup < min {
			out = append(out, fmt.Sprintf("%s: speedup %.2fx below required %.2fx", name, c.Speedup, min))
		}
	}
	sort.Strings(out)
	return out
}
