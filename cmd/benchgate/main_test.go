package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sam/internal/experiments"
)

// writeReport writes a one-row tensor report whose exp_row_mass speedup is
// speedup and returns its path.
func writeReport(t *testing.T, dir, name string, vector bool, speedup float64) string {
	t.Helper()
	rep := experiments.TensorBenchReport{
		Workers:       1,
		VectorKernels: vector,
		Results: []experiments.TensorBenchResult{
			{Name: "exp_row_mass", BeforeNsOp: 5438, NsOp: int64(5438 / speedup), Speedup: speedup},
		},
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVectorFloorsFollowTheReport runs benchgate on a report whose
// exp_row_mass runs at the scalar loop's speed, under a -vector-min floor:
// a report that ran the Go loops passes with the floor skipped, and the
// same figure from a report that ran the AVX2 twins fails, naming the row.
// A -min floor applies either way.
func TestVectorFloorsFollowTheReport(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchgate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	baseline := writeReport(t, dir, "baseline.json", true, 3)
	for _, tc := range []struct {
		vector bool
		min    string
		fail   bool
		want   string
	}{
		{vector: false, want: "skipping 1 -vector-min floor(s)"},
		{vector: true, fail: true, want: "exp_row_mass: speedup 1.00x below required 1.30x"},
		{vector: false, min: "exp_row_mass=1.3", fail: true, want: "exp_row_mass: speedup 1.00x below required 1.30x"},
	} {
		current := writeReport(t, dir, "current.json", tc.vector, 1)
		args := []string{"-baseline", baseline, "-current", current, "-tol", "100", "-vector-min", "exp_row_mass=1.3"}
		if tc.min != "" {
			args = append(args, "-min", tc.min)
		}
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if failed := errors.As(err, &exit); failed != tc.fail || (err != nil && !failed) || !strings.Contains(string(out), tc.want) {
			t.Fatalf("vector=%v min=%q: err %v, want failure %v with %q in the output:\n%s",
				tc.vector, tc.min, err, tc.fail, tc.want, out)
		}
	}
}
