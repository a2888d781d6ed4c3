// Command sambench reproduces the SAM paper's evaluation tables and
// figures on the synthetic datasets (see DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	sambench [-scale smoke|quick|full] [-exp all|tab1..tab9|fig5..fig8] [-seed N] [-v]
//	         [-runlog run.log] [-metrics-out metrics.prom]
//	         [-progress] [-debug-addr :6060]
//	sambench -tensorbench BENCH_tensor.json
//	sambench -scalebench BENCH_scale.json [-scalerows N] [-scaleshards N] \
//	         [-scaleworkers N] [-scalepartitions N] [-scaledir DIR] \
//	         [-runlog run.log] [-metrics-out metrics.prom]
//
// Experiments share trained models and generated databases within one
// invocation, so running -exp all is much cheaper than running each
// experiment separately.
//
// -runlog writes every pipeline event as structured JSONL and, at the
// end, the run's phase tree (train/sample/merge/eval spans with wall time
// and allocation deltas) as span entries; the tree is also printed after
// the reports as the per-path table samreport shows. -progress streams
// per-epoch training loss (with an ETA), throttled sampling progress, and
// per-phase generation stats to stderr. -debug-addr serves live
// net/http/pprof and the telemetry registry in Prometheus text format at
// /metrics while the run is hot. -metrics-out snapshots the final
// registry as Prometheus text. Every invocation mints a run ID stamped
// into all artifacts (run-log lines, sam_run_info family, scalebench
// report), which is how cmd/samreport joins them back together.
//
// -tensorbench skips the experiments and instead micro-benchmarks the
// tensor hot paths (dense matmul, MADE training forward+backward, sampling
// forward, full train step), writing JSON with the current numbers next to
// the pre-overhaul baselines.
//
// -scalebench runs the sharded streaming-generation pipeline end to end at
// -scalerows rows and writes throughput plus peak-memory watermarks as
// JSON; benchgate turns that report into the CI scale gate (rows/sec floor
// and peak-memory ceiling).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sam/internal/experiments"
	"sam/internal/obs"
)

func main() {
	log.SetFlags(0)
	scaleFlag := flag.String("scale", "quick", "experiment scale: smoke, quick or full")
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (tab1..tab9, fig5..fig8) or all")
	seed := flag.Int64("seed", 1, "random seed")
	batch := flag.Int("batch", -1, "ancestral-sampling lanes per generation worker (-1 keeps the scale default, 0 or 1 means one lane)")
	verbose := flag.Bool("v", false, "log progress to stderr")
	tensorBench := flag.String("tensorbench", "", "write tensor hot-path benchmark JSON to this file and exit")
	scaleBench := flag.String("scalebench", "", "write sharded streaming-generation scale benchmark JSON to this file and exit")
	scaleRows := flag.Int("scalerows", 1_000_000, "rows to generate for -scalebench")
	scaleShards := flag.Int("scaleshards", 0, "sample shards for -scalebench (0 = auto)")
	scaleWorkers := flag.Int("scaleworkers", 0, "generation workers for -scalebench, sampling and merge (0 = GOMAXPROCS)")
	scalePartitions := flag.Int("scalepartitions", 0, "spill partitions for -scalebench (0 = 64)")
	scaleDir := flag.String("scaledir", "", "scratch directory for -scalebench shards and spill files (default: a temp dir)")
	runlogOut := flag.String("runlog", "", "write the run's structured events and phase span tree as JSONL (framed by run_start/run_end and stamped with the run ID) to this file")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry registry in Prometheus text format to this file at exit")
	progress := flag.Bool("progress", false, "stream per-epoch training and per-phase generation progress to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /metrics on this address (e.g. :6060)")
	flag.Parse()

	if *tensorBench != "" {
		rep := experiments.RunTensorBench()
		buf, err := rep.JSON()
		if err != nil {
			log.Fatalf("tensorbench: %v", err)
		}
		if err := os.WriteFile(*tensorBench, buf, 0o644); err != nil {
			log.Fatalf("tensorbench: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("%-24s %9d ns/op (%.2fx vs seed)  %d allocs/op (seed %d)\n",
				r.Name, r.NsOp, r.Speedup, r.AllocsOp, r.BeforeAllocsOp)
		}
		return
	}

	tel, err := obs.StartCLITelemetry(obs.CLIFlags{
		Name: "sambench", Seed: *seed, RunLogPath: *runlogOut,
		MetricsPath: *metricsOut, DebugAddr: *debugAddr, Progress: *progress,
	})
	if err != nil {
		log.Fatal(err)
	}
	// closeTelemetry writes the artifacts the flags configured; every exit
	// path below runs it after the work completes.
	closeTelemetry := func() {
		if err := tel.Close(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *scaleBench != "" {
		tel.Trace.Root().SetAttr("scalerows", *scaleRows)
		rep, err := experiments.RunScaleBench(experiments.ScaleBenchConfig{
			Rows:       *scaleRows,
			Shards:     *scaleShards,
			Workers:    *scaleWorkers,
			Batch:      *batch,
			Partitions: *scalePartitions,
			Dir:        *scaleDir,
			Seed:       *seed,
			RunID:      tel.RunID,
			Hooks:      tel.Hooks,
			Span:       tel.Trace.Root(),
		})
		if err != nil {
			log.Fatalf("scalebench: %v", err)
		}
		buf, err := rep.JSON()
		if err != nil {
			log.Fatalf("scalebench: %v", err)
		}
		if err := os.WriteFile(*scaleBench, buf, 0o644); err != nil {
			log.Fatalf("scalebench: %v", err)
		}
		fmt.Printf("scalebench: %d rows in %dms (%.0f rows/sec end-to-end, %.0f sampling) across %d shards [run %s]\n",
			rep.Rows, rep.TotalWallMs, rep.RowsPerSec, rep.SampleRowsPerSec, rep.Shards, rep.RunID)
		fmt.Printf("scalebench: merge pass split A=%dms B=%dms\n",
			rep.PassAWallMs, rep.PassBWallMs)
		fmt.Printf("scalebench: peak heap %.1f MiB, peak RSS %.1f MiB, shard bytes %.1f MiB\n",
			float64(rep.PeakHeapBytes)/(1<<20), float64(rep.PeakRSSBytes)/(1<<20), float64(rep.ShardBytes)/(1<<20))
		closeTelemetry()
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "smoke":
		scale = experiments.SmokeScale()
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		log.Fatalf("unknown -scale %q (want smoke, quick or full)", *scaleFlag)
	}
	scale.Seed = *seed
	if *batch >= 0 {
		scale.GenBatch = *batch
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), fmt.Sprintf(format, args...))
		}
	}
	ctx := experiments.NewContext(scale, logf)
	tel.Trace.Root().SetAttr("scale", *scaleFlag)
	tel.Trace.Root().SetAttr("experiments", *expFlag)
	ctx.Hooks = tel.Hooks
	ctx.Span = tel.Trace.Root()

	runners := experiments.Runners()
	wanted := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		for id := range wanted {
			found := false
			for _, r := range runners {
				if r.ID == id {
					found = true
					break
				}
			}
			if !found {
				log.Fatalf("unknown experiment %q; known: %s", id, idList(runners))
			}
		}
	}

	start := time.Now()
	for _, r := range runners {
		if *expFlag != "all" && !wanted[r.ID] {
			continue
		}
		rep := r.Fn(ctx)
		fmt.Println(rep.String())
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))
	}

	closeTelemetry()
}

func idList(rs []experiments.Runner) string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return strings.Join(ids, ", ")
}
