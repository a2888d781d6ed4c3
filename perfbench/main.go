// Command perfbench is the pipeline benchmark: it runs SAM from a query
// workload to a validated database on one named workload and prints every
// metric with its unit. Build and run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload imdb-train --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --report 10               # steadiness report, two sets
//
// A run builds the hidden database and query workload from --seed, labels
// the queries exactly, trains the model, and repeats generation passes
// in rounds until --seconds have elapsed (pipeline.go says how). Each
// timing is the median of its in-process repeats, and
// peak_rss_mib is the median peak resident set of the hungriest step, each
// repeat starting from a collected heap. Every generated database is
// checked: each table validates, holds its target row count, and every
// foreign key names a parent row. Streamed CSVs are read back through
// relation for the checks and for Q-Error, which engine computes on the
// input workload. Count and quality outputs must repeat bit for bit
// across the repeats, or the run fails.
//
// Pinned coordinates: GOMAXPROCS, generation and streaming workers and
// generation matmul workers are 2 (procs); training runs one worker with
// serial kernels (workloads.go says why); the batch, shard and partition
// counts are per workload; every seed derives from --seed. Flush policy:
// streamed shards, spill files and CSVs go to a temporary directory under
// .bench_build/perfbench, are never fsynced (the program issues no
// fsync), and are deleted at the end of each pass.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; timed runs leave every Hooks and Span nil. With
// --trace 1 the program makes the same untraced run and then a traced
// one on half the budget — an obs.Trace root handed to training and generation, hooks on
// every event, and spans of its own around each public call — and prints
// the per-layer metrics instead, with the trace written as JSONL next to
// the temporary directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sam/internal/obs"
	"sam/internal/tensor"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"train_s", "s"}, {"gen_s", "s"}, {"total_s", "s"},
	{"peak_rss_mib", "MiB"}, {"qerror_p50", "ratio"}, {"qerror_p90", "ratio"},
}

var perLayer = []metricDef{
	{"datagen.build_s", "s"},
	{"engine.label_s", "s"}, {"engine.card_us_p50", "us"}, {"engine.card_us_p99", "us"},
	{"ar.compile_s", "s"}, {"ar.step_ms_p50", "ms"}, {"ar.step_ms_p90", "ms"},
	{"ar.steps", "count"}, {"ar.train_alloc_mib", "MiB"},
	{"ar.sampler_ns_per_tuple", "ns"},
	{"core.sample_s", "s"}, {"core.weight_s", "s"}, {"core.merge_s", "s"},
	{"core.merge_groups", "count"}, {"core.gen_alloc_mib", "MiB"},
	{"stream.shard_s", "s"}, {"stream.backpressure_s", "s"}, {"stream.weight_s", "s"},
	{"stream.pass_a_s", "s"}, {"stream.pass_b_s", "s"}, {"stream.pass_c_s", "s"},
	{"stream.heap_peak_mib", "MiB"},
	{"stream.shard_bytes", "bytes"}, {"stream.spill_bytes", "bytes"},
	{"relation.csv_bytes_per_row", "bytes/row"},
	{"host.calib_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed for every input of the run")
	seconds := fs.Int("seconds", 50, "time budget of the run; rounds of set-up, training and generation repeat while it lasts")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics")
	report := fs.Int("report", 0, "steadiness report: run each workload on seeds 1..N, twice, and summarize")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for temporary output and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *report > 0 {
		return steadiness(*report, *name, *seconds, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	runtime.GOMAXPROCS(procs)
	tensor.SetMatMulWorkers(procs)
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	calibStart := calibrate()

	res, err := runPipeline(w, *seed, start, budget, nil, tmp)
	if err != nil {
		return fail(stdout, res, err)
	}
	metrics := map[string]float64{
		"setup_s":      median(res.setup.wall),
		"train_s":      median(res.train.wall),
		"gen_s":        median(res.gen.wall),
		"total_s":      res.total(),
		"peak_rss_mib": res.peakRSS(),
		"qerror_p50":   res.fp.QErrorP50,
		"qerror_p90":   res.fp.QErrorP90,
	}
	defs := endToEnd
	if *trace == 1 {
		tr := newTracer(obs.NewRunID())
		traced, err := runPipeline(w, *seed, time.Now(), budget/2, tr, tmp)
		if err == nil {
			err = sameOutputs(res.fp, traced.fp, len(tr.steps)/len(traced.train.wall))
		}
		if err != nil {
			return fail(stdout, traced, fmt.Errorf("traced run: %w", err))
		}
		tracePath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.trace.jsonl", w.name, *seed))
		metrics, err = tr.layers(w, traced, tracePath)
		if err != nil {
			return fail(stdout, traced, fmt.Errorf("trace analysis: %w", err))
		}
		metrics["trace.overhead_pct"] = 100 * (traced.total()/res.total() - 1)
		res.attempted += traced.attempted
		res.failed += traced.failed
		defs = perLayer
	}
	calibEnd := calibrate()
	if *trace == 1 {
		metrics["host.calib_ms"] = (calibStart + calibEnd) / 2
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d procs=%d train_workers=%d matmul_workers=train:%d,gen:%d batch=%d samples=%d shards=%d partitions=%d\n",
		w.name, *seed, procs, trainWorkers, trainMatMulWorkers, tensor.MatMulWorkers(), w.genBatch, w.samples, w.shards, w.partitions)
	out := result{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := metrics[d.name]
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range []struct {
		name string
		ph   phase
	}{{"setup", res.setup}, {"train", res.train}, {"gen", res.gen}} {
		fmt.Fprintf(stdout, "repeats %-5s wall_s=%.4f rss_mib=%.1f\n", p.name, p.ph.wall, p.ph.rss)
	}
	fmt.Fprintf(stdout, "host.calib_ms start=%.4f end=%.4f\n", calibStart, calibEnd)
	fp, _ := json.Marshal(res.fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// fail reports a failed run: the error on standard error and a result
// line marked incorrect, with exit code 1.
func fail(stdout io.Writer, res *runResult, err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	out := result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	if res != nil && res.attempted > 0 {
		out.Attempted, out.Failed = res.attempted, max(res.failed, 1)
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	return 1
}

// sameOutputs checks that the traced run reproduced the untraced run's
// outputs bit for bit (observers must not change them) and that the
// trained step count seen by the TrainStep hook matches the schedule.
func sameOutputs(a, b fingerprint, hookSteps int) error {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		return fmt.Errorf("outputs differ from the untraced run:\n  untraced %s\n  traced   %s", ja, jb)
	}
	if hookSteps != a.Steps {
		return fmt.Errorf("TrainStep hook saw %d steps per training, schedule has %d", hookSteps, a.Steps)
	}
	return nil
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed pure-Go loop (median of five, in ms). It does
// no allocation and touches no program code, so it moves only with the
// host, which separates host drift from program change.
func calibrate() float64 {
	per := make([]float64, 5)
	for i := range per {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		per[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(per)
}

// resetPeakRSS resets the process's peak resident set to its current
// resident set, where Linux allows it.
func resetPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// vmHWM returns the process's peak resident set in MiB from
// /proc/self/status, or 0 where that is unavailable.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
