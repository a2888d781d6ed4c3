package experiments

import (
	"strings"
	"testing"
)

func gateReport(results ...TensorBenchResult) *TensorBenchReport {
	return &TensorBenchReport{Results: results}
}

func TestCompareBenchPasses(t *testing.T) {
	base := gateReport(
		TensorBenchResult{Name: "matmul", NsOp: 1000, AllocsOp: 0},
		TensorBenchResult{Name: "sample_batched", NsOp: 100, AllocsOp: 0, Speedup: 3.5},
	)
	cur := gateReport(
		TensorBenchResult{Name: "matmul", NsOp: 1200, AllocsOp: 0}, // +20% < 25% tolerance
		TensorBenchResult{Name: "sample_batched", NsOp: 90, AllocsOp: 0, Speedup: 3.4},
	)
	if v := CompareBench(base, cur, 0.25, map[string]float64{"sample_batched": 3}, nil); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCompareBenchCatchesEveryBreach(t *testing.T) {
	base := gateReport(
		TensorBenchResult{Name: "matmul", NsOp: 1000, AllocsOp: 0},
		TensorBenchResult{Name: "train", NsOp: 500, AllocsOp: 10},
		TensorBenchResult{Name: "gone", NsOp: 10, AllocsOp: 0},
	)
	cur := gateReport(
		TensorBenchResult{Name: "matmul", NsOp: 1300, AllocsOp: 0}, // +30% > tolerance
		TensorBenchResult{Name: "train", NsOp: 400, AllocsOp: 12},  // alloc growth
		TensorBenchResult{Name: "sample_batched", NsOp: 100, Speedup: 2.4},
	)
	v := CompareBench(base, cur, 0.25, map[string]float64{
		"sample_batched": 3,
		"absent":         2,
	}, nil)
	if len(v) != 5 {
		t.Fatalf("want 5 violations, got %d: %v", len(v), v)
	}
	for _, frag := range []string{
		"matmul: ns/op regressed",
		"train: allocs/op grew 10 → 12",
		"gone: present in baseline but missing",
		"absent: speedup floor",
		"sample_batched: speedup 2.40x below required 3.00x",
	} {
		found := false
		for _, s := range v {
			if strings.Contains(s, frag) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no violation mentioning %q in %v", frag, v)
		}
	}
}

func TestCompareBenchWorkersNotComparable(t *testing.T) {
	base := gateReport(TensorBenchResult{Name: "matmul", NsOp: 1000, AllocsOp: 0})
	base.Workers = 1
	cur := gateReport(TensorBenchResult{Name: "matmul", NsOp: 900, AllocsOp: 3})
	cur.Workers = 2
	v := CompareBench(base, cur, 0.25, map[string]float64{"absent": 2}, nil)
	if len(v) != 1 || !strings.Contains(v[0], "not comparable: current run used 2 matmul workers, baseline 1") {
		t.Fatalf("want one not-comparable violation, got %v", v)
	}
}

func TestCompareBenchDeterministicOrder(t *testing.T) {
	base := gateReport(
		TensorBenchResult{Name: "b", NsOp: 10},
		TensorBenchResult{Name: "a", NsOp: 10},
	)
	cur := gateReport()
	v := CompareBench(base, cur, 0.25, nil, nil)
	if len(v) != 2 || v[0] > v[1] {
		t.Fatalf("violations not sorted: %v", v)
	}
}
