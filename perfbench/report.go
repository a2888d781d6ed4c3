package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the report reads: the
// workloads and each end-to-end metric's bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is what the report keeps from one child run.
type runOutput struct {
	metrics     map[string]float64
	fingerprint string
	calib       float64 // mean of the start and end calibration
}

// steadiness runs each workload on seeds 1..n in fresh processes, twice:
// set A, then set B with the same seeds. For each end-to-end metric and
// set it prints the median, quartiles (as Python's statistics.quantiles
// gives them), quartile spread as a share of the median and max/min ratio,
// and flags a spread above the metric's bound. It also flags a set-B
// median worse than set A's by more than the bound. The spread within a
// set mixes seeds, as a regression check over many seeds sees it; the
// per-seed B/A ratio is pure run-to-run noise, and its median distance
// from 1 is printed as the repeat noise. Each seed must give the same
// fingerprint in both sets: count and quality outputs repeat bit for bit
// across processes. only restricts the report to one workload. The exit
// code is 1 when anything is flagged.
func steadiness(n int, only string, seconds int, stdout io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report needs BENCHMARK.json in the working directory:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	flagged := false
	for _, wl := range spec.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		var sets [2][]runOutput
		for set := range sets {
			for s := 1; s <= n; s++ {
				out, err := runChild(exe, wl.Name, int64(s), seconds)
				if err != nil {
					fmt.Fprintf(stdout, "%s set %c seed %d: %v\n", wl.Name, 'A'+set, s, err)
					return 1
				}
				sets[set] = append(sets[set], out)
			}
		}
		fmt.Fprintf(stdout, "\n%s: two sets of %d runs, seeds 1..%d\n", wl.Name, n, n)
		fmt.Fprintf(stdout, "  %-14s %3s %12s %12s %12s %8s %8s %6s\n", "metric", "set", "q1", "median", "q3", "spread", "max/min", "bound")
		values := func(set int, name string) []float64 {
			vals := make([]float64, n)
			for i, r := range sets[set] {
				vals[i] = r.metrics[name]
			}
			return vals
		}
		for _, m := range spec.EndToEnd {
			var meds [2]float64
			for set := range sets {
				spread, med, line := summarize(rowLabel(m.Name, set), values(set, m.Name))
				meds[set] = med
				mark := ""
				if spread > m.Bound {
					mark, flagged = "  SPREAD ABOVE BOUND", true
				}
				fmt.Fprintf(stdout, "%s %6.3f%s\n", line, m.Bound, mark)
			}
			a, b := values(0, m.Name), values(1, m.Name)
			noise := make([]float64, n)
			for i := range noise {
				noise[i] = math.Abs(b[i]/a[i] - 1)
			}
			mark := ""
			if meds[1] > meds[0]*(1+m.Bound) {
				mark, flagged = "  B WORSE THAN A BEYOND BOUND", true
			}
			fmt.Fprintf(stdout, "  %-18s B/A median %8.4f  repeat noise %7.4f%s\n", "", meds[1]/meds[0], median(noise), mark)
		}
		for set := range sets {
			calib := make([]float64, n)
			for i, r := range sets[set] {
				calib[i] = r.calib
			}
			_, _, line := summarize(rowLabel("host.calib_ms", set), calib)
			fmt.Fprintln(stdout, line)
		}
		same := true
		for i := range sets[0] {
			if sets[0][i].fingerprint != sets[1][i].fingerprint {
				same, flagged = false, true
				fmt.Fprintf(stdout, "  seed %d did not repeat exactly:\n    %s\n    %s\n", i+1, sets[0][i].fingerprint, sets[1][i].fingerprint)
			}
		}
		if same {
			fmt.Fprintln(stdout, "  every seed repeated exactly in a fresh process")
		}
	}
	if flagged {
		return 1
	}
	return 0
}

// rowLabel names a metric's row of one set.
func rowLabel(name string, set int) string { return fmt.Sprintf("%-14s %3c", name, 'A'+set) }

// summarize formats one metric's row and returns its quartile spread and
// median.
func summarize(label string, vals []float64) (float64, float64, string) {
	q1, med, q3 := quartiles(vals)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	spread := (q3 - q1) / med
	return spread, med, fmt.Sprintf("  %s %12.5g %12.5g %12.5g %8.4f %8.4f", label, q1, med, q3, spread, hi/lo)
}

// quartiles matches Python's statistics.quantiles(vals, n=4) with its
// default exclusive method.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	q := make([]float64, 3)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// runChild runs one untraced benchmark process and parses its output.
func runChild(exe, name string, seed int64, seconds int) (runOutput, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return runOutput{}, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	out := runOutput{metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "fingerprint "):
			out.fingerprint = strings.TrimPrefix(line, "fingerprint ")
		case strings.HasPrefix(line, "host.calib_ms "):
			var a, b float64
			if _, err := fmt.Sscanf(line, "host.calib_ms start=%g end=%g", &a, &b); err == nil {
				out.calib = (a + b) / 2
			}
		}
		last = line
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runOutput{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return runOutput{}, fmt.Errorf("run reported incorrect output")
	}
	for k, v := range res.Metrics {
		out.metrics[k] = v.Value
	}
	return out, nil
}
