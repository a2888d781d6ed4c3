// Command benchgate turns committed benchmark JSON into pass/fail CI
// gates. It checks a fresh tensorbench report against a committed baseline
// and, optionally, a scalebench report against absolute floors, reporting
// EVERY violation before exiting nonzero — a run with three regressions
// prints three lines, not one:
//
//	benchgate -baseline BENCH_tensor.json -current /tmp/bench.json \
//	          -tol 0.25 -min sample_batched=6,sample_batched_workers=4 \
//	          -vector-min exp_row_mass=1.3 \
//	          -scale /tmp/scale.json -scale-min-rps 20000 -scale-max-mem 768
//
// -tol bounds the allowed ns/op regression per benchmark (0.25 = +25%);
// allocation growth always fails. -min names speedup-ratio floors against
// each row's recorded baseline, e.g. sample_batched=6 requires batched
// ancestral sampling to stay at least 6× faster per tuple than the
// recorded cost of the old single-row sampler, and sample_batched_workers=4
// gates the worker×lane composition, whose ratio sits below the
// single-worker one on single-core hosts (scheduling overhead, no scaling
// win). -vector-min floors apply only when the current report ran the
// AVX2 twins (its vector_kernels field): rows whose baseline is a Go loop
// or kernel a twin replaced, which a host without AVX2 cannot beat.
//
// -scale gates a `sambench -scalebench` report: -scale-min-rps is the
// end-to-end generated rows/sec floor and -scale-max-mem (MiB) caps both
// the peak Go heap and the process VmHWM, the evidence that streaming
// generation stays bounded-memory at scale. Unreadable report files are
// themselves violations, not fatal errors, so one broken artifact cannot
// mask the other gate's result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"sam/internal/experiments"
	"sam/internal/obs"
)

func readTensorReport(path string) (*experiments.TensorBenchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.TensorBenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func readScaleReport(path string) (*experiments.ScaleBenchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.ScaleBenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func parseMin(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -min entry %q, want name=ratio", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -min ratio in %q: %w", part, err)
		}
		out[name] = f
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	baselinePath := flag.String("baseline", "BENCH_tensor.json", "committed baseline report")
	currentPath := flag.String("current", "", "freshly measured tensor report to gate")
	tol := flag.Float64("tol", 0.25, "allowed fractional ns/op regression per benchmark")
	minSpec := flag.String("min", "", "comma-separated speedup floors, e.g. sample_batched=3")
	vectorMinSpec := flag.String("vector-min", "", "speedup floors applied only when the current report ran the AVX2 twins")
	scalePath := flag.String("scale", "", "scalebench report to gate (optional)")
	scaleMinRPS := flag.Float64("scale-min-rps", 0, "minimum end-to-end generated rows/sec for -scale (0 disables)")
	scaleMaxMem := flag.Int64("scale-max-mem", 0, "maximum peak heap/RSS in MiB for -scale (0 disables)")
	version := flag.Bool("version", false, "print build metadata and exit")
	flag.Parse()

	if *version {
		fmt.Println("benchgate", obs.BuildMeta())
		return
	}

	if *currentPath == "" && *scalePath == "" {
		log.Fatal("benchgate: nothing to gate; pass -current and/or -scale")
	}

	// Collect every violation across every requested gate before deciding
	// the exit code, so a single CI run surfaces the full damage report.
	var violations []string
	checked := 0

	if *currentPath != "" {
		baseline, berr := readTensorReport(*baselinePath)
		current, cerr := readTensorReport(*currentPath)
		minSpeedup, merr := parseMin(*minSpec)
		vectorMin, verr := parseMin(*vectorMinSpec)
		merr = errors.Join(merr, verr)
		switch {
		case berr != nil:
			violations = append(violations, fmt.Sprintf("tensor: unreadable baseline: %v", berr))
		case cerr != nil:
			violations = append(violations, fmt.Sprintf("tensor: unreadable current report: %v", cerr))
		case merr != nil:
			violations = append(violations, fmt.Sprintf("tensor: %v", merr))
		default:
			if !current.VectorKernels && len(vectorMin) > 0 {
				fmt.Printf("benchgate: the current report ran without the AVX2 twins; skipping %d -vector-min floor(s)\n", len(vectorMin))
			}
			violations = append(violations, experiments.CompareBench(baseline, current, *tol, minSpeedup, vectorMin)...)
			checked += len(baseline.Results)
		}
	}

	if *scalePath != "" {
		rep, err := readScaleReport(*scalePath)
		if err != nil {
			violations = append(violations, fmt.Sprintf("scale: unreadable report: %v", err))
		} else {
			if rep.RunID != "" {
				fmt.Printf("benchgate: scale report from run %s (pass split: sample=%dms A=%dms B=%dms)\n",
					rep.RunID, rep.SampleWallMs, rep.PassAWallMs, rep.PassBWallMs)
			}
			violations = append(violations, experiments.CompareScale(rep, *scaleMinRPS, *scaleMaxMem<<20)...)
			checked++
		}
	}

	if len(violations) == 0 {
		fmt.Printf("benchgate: %d checks within bounds (tolerance %.0f%%)\n", checked, *tol*100)
		return
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL "+v)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d violation(s)\n", len(violations))
	os.Exit(1)
}
