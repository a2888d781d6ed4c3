// Command samgen is the full SAM pipeline as a tool: it trains an
// autoregressive model from a labeled query workload plus schema metadata
// (never touching the underlying data) and writes a generated database as
// one CSV file per table.
//
// Usage:
//
//	samgen -workload workload.json -schema schema.json -outdir gen/ \
//	       [-population N] [-epochs N] [-hidden N] [-samples N] [-seed N] [-no-gam] \
//	       [-shards N] [-workers N] [-partitions N] \
//	       [-runlog run.log] [-metrics-out metrics.prom] \
//	       [-progress] [-debug-addr :6060]
//
// -population is required for multi-relation schemas (the full outer join
// size, printed by workloadgen).
//
// Generation streams: sampling is sharded under outdir/shards and tables
// are merged and written through bounded-memory spill files, so peak
// memory does not grow with -samples. The shards and spill files are
// removed once the CSVs are written, also when generation fails.
//
// The generated database is a pure function of (-seed, -samples): sample
// i draws from its own random stream, and the merge walks its groups in
// hash order. -batch, -shards, -workers and -partitions change speed and
// memory only.
//
// -no-gam runs the paper's "SAM w/o Group-and-Merge" ablation: foreign keys
// are drawn from pairwise (parent, child) views instead of Group-and-Merge,
// in the same merge.
//
// -runlog writes every pipeline event as structured JSONL and, at the
// end, the pipeline's phase tree (train/sample/merge spans with wall time
// and allocation deltas) as span entries; the tree is also printed as the
// per-path table samreport shows. -progress streams per-epoch loss (with
// an ETA), throttled sampling progress, and per-phase generation stats to
// stderr; -debug-addr serves live pprof and Prometheus metrics at
// /metrics; -metrics-out snapshots the final registry as Prometheus text.
// Every invocation mints a run ID stamped into all of these (run log
// lines, the sam_run_info family), which is how cmd/samreport joins a
// run's artifacts back together.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

func main() {
	log.SetFlags(0)
	wlPath := flag.String("workload", "workload.json", "labeled workload (JSON)")
	schemaPath := flag.String("schema", "schema.json", "schema metadata (JSON)")
	outDir := flag.String("outdir", "generated", "output directory for CSVs")
	shards := flag.Int("shards", 0, "sample shards (0 = one per 16Ki rows); workers sample whole shards, and the count never changes output bytes")
	workers := flag.Int("workers", 0, "generation goroutines (0 = GOMAXPROCS): workers sample whole shards, and the merge scans samples on up to this many and groups the next spill partition on one while the main goroutine writes; output bytes never change")
	partitions := flag.Int("partitions", 0, "spill partitions for the external group-and-merge (0 = 64); bounds merge memory without changing output bytes")
	population := flag.Float64("population", 0, "full outer join size (multi-relation only; single-relation defaults to |T|)")
	epochs := flag.Int("epochs", 6, "training epochs")
	hidden := flag.Int("hidden", 64, "hidden width of the MADE backbone")
	samples := flag.Int("samples", 0, "FOJ samples for generation (0 = auto)")
	batch := flag.Int("batch", 64, "ancestral-sampling lanes per worker (<=1 means one lane); changes speed, not output bytes")
	seed := flag.Int64("seed", 1, "random seed")
	noGam := flag.Bool("no-gam", false, "assign foreign keys from pairwise views instead of Group-and-Merge (the paper's ablation)")
	savePath := flag.String("save", "", "save the trained model to this path")
	loadPath := flag.String("load", "", "skip training and load a model saved with -save")
	runlogOut := flag.String("runlog", "", "write the run's structured events and phase span tree as JSONL (framed by run_start/run_end and stamped with the run ID) to this file")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry registry in Prometheus text format to this file at exit")
	progress := flag.Bool("progress", false, "stream per-epoch training and per-phase generation progress to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /metrics on this address (e.g. :6060)")
	flag.Parse()

	tel, err := obs.StartCLITelemetry(obs.CLIFlags{
		Name: "samgen", Seed: *seed, RunLogPath: *runlogOut,
		MetricsPath: *metricsOut, DebugAddr: *debugAddr, Progress: *progress,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *loadPath != "" {
		mf, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err := ar.Load(mf)
		mf.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded model (%d parameters)", model.Net.NumParams())
		// Target sizes come from the schema metadata file (the model file
		// stores the schema shape, not the row counts).
		sf, err := os.Open(*schemaPath)
		if err != nil {
			log.Fatal(err)
		}
		sspec, err := relation.ReadSpec(sf)
		sf.Close()
		if err != nil {
			log.Fatal(err)
		}
		generateAndWrite(model, sspec.Sizes(), genConfig{
			outDir: *outDir, samples: *samples, batch: *batch, seed: *seed,
			gam: !*noGam, shards: *shards, workers: *workers,
			partitions: *partitions,
		}, tel)
		return
	}

	sf, err := os.Open(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := relation.ReadSpec(sf)
	sf.Close()
	if err != nil {
		log.Fatal(err)
	}
	shell, err := spec.EmptySchema()
	if err != nil {
		log.Fatal(err)
	}
	sizes := spec.Sizes()

	wf, err := os.Open(*wlPath)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := workload.Read(wf)
	wf.Close()
	if err != nil {
		log.Fatal(err)
	}
	for i := range wl.Queries {
		if err := wl.Queries[i].Validate(shell); err != nil {
			log.Fatalf("workload query %d: %v", i, err)
		}
	}

	pop := *population
	if pop <= 0 {
		if !shell.SingleTable() {
			log.Fatal("multi-relation schema requires -population (the full outer join size)")
		}
		pop = float64(sizes[shell.Tables[0].Name])
	}

	layout := join.NewLayout(shell)
	cfg := ar.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.Model.Hidden = *hidden
	cfg.Seed = *seed
	cfg.Logf = log.Printf
	cfg.Hooks = tel.Hooks
	cfg.Span = tel.Trace.Root()
	log.Printf("training SAM on %d cardinality constraints (%d model columns)...", wl.Len(), layout.NumCols())
	start := time.Now()
	model, err := ar.Train(layout, wl, pop, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trained in %v (%d parameters)", time.Since(start).Round(time.Millisecond), model.Net.NumParams())

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Save(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved model to %s", *savePath)
	}

	generateAndWrite(model, sizes, genConfig{
		outDir: *outDir, samples: *samples, batch: *batch, seed: *seed,
		gam: !*noGam, shards: *shards, workers: *workers,
		partitions: *partitions,
	}, tel)
}

// genConfig bundles the generation-phase flag settings.
type genConfig struct {
	outDir     string
	samples    int
	batch      int
	seed       int64
	gam        bool
	shards     int
	workers    int
	partitions int
}

// generateAndWrite runs the generation phase through the sharded
// streaming pipeline, which writes one CSV per table.
func generateAndWrite(model *ar.Model, sizes map[string]int, cfg genConfig, tel *obs.CLITelemetry) {
	gen, err := core.FromModel(model, sizes)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultStreamOptions(cfg.seed+1, cfg.outDir)
	opts.Samples = cfg.samples
	opts.GroupAndMerge = cfg.gam
	opts.Batch = cfg.batch
	opts.Workers = cfg.workers
	opts.Shards = cfg.shards
	opts.Partitions = cfg.partitions
	opts.Hooks = tel.Hooks
	opts.Span = tel.Trace.Root()
	start := time.Now()
	res, err := gen.GenerateStream(core.ModelSampler(model, opts.Batch), opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("generated database in %v (%d samples, streamed)", time.Since(start).Round(time.Millisecond), res.Samples)
	for _, t := range gen.Layout.Schema.Tables {
		log.Printf("wrote %s (%d rows, %d merge groups)", res.CSVPaths[t.Name], res.Rows[t.Name], res.Groups[t.Name])
	}
	closeTelemetry(tel)
}

// closeTelemetry writes the run's run log and metrics artifacts.
func closeTelemetry(tel *obs.CLITelemetry) {
	if err := tel.Close(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
