// Command samreport fuses the artifacts one SAM run leaves behind into a
// single Markdown report: the phase trace (samgen/sambench -trace), the
// metrics in Prometheus text (-metrics-out or a /metrics scrape), the
// structured JSONL run log (-runlog), and the benchmark documents
// (BENCH_scale.json, BENCH_tensor.json). Inputs are joined by the run ID
// each artifact was stamped with; mixing artifacts from different runs is
// an error unless -allow-mismatch downgrades it to a warning in the
// report.
//
// Usage:
//
//	samreport [-trace run.jsonl] [-baseline old.jsonl] [-metrics metrics.prom]
//	          [-runlog run.log] [-scale BENCH_scale.json] [-tensor BENCH_tensor.json]
//	          [-top N] [-o report.md] [-allow-mismatch]
//
// -baseline diffs the -trace span tree against a second trace (typically
// from an older commit), surfacing per-span wall and allocation deltas.
// -top bounds the hot-span and diff listings. With no -o the report goes
// to stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sam/internal/obs"
	"sam/internal/report"
)

func main() {
	log.SetFlags(0)
	tracePath := flag.String("trace", "", "JSONL phase trace to analyze")
	baselinePath := flag.String("baseline", "", "baseline trace to diff -trace against")
	metricsPath := flag.String("metrics", "", "metrics in Prometheus text format (-metrics-out or a /metrics scrape)")
	runlogPath := flag.String("runlog", "", "structured JSONL run log (-runlog)")
	scalePath := flag.String("scale", "", "scalebench report (BENCH_scale.json)")
	tensorPath := flag.String("tensor", "", "tensorbench report (BENCH_tensor.json)")
	top := flag.Int("top", 10, "hot spans / diff rows to list")
	out := flag.String("o", "", "write the report to this file (default stdout)")
	allowMismatch := flag.Bool("allow-mismatch", false, "tolerate inputs with differing run IDs (reported as a warning)")
	version := flag.Bool("version", false, "print build metadata and exit")
	flag.Parse()

	if *version {
		fmt.Println("samreport", obs.BuildMeta())
		return
	}
	if args := flag.Args(); len(args) > 0 {
		log.Fatalf("samreport: unexpected arguments %q (inputs are named by flags)", args)
	}

	rep, err := report.Build(report.Inputs{
		TracePath:     *tracePath,
		BaselinePath:  *baselinePath,
		MetricsPath:   *metricsPath,
		RunLogPath:    *runlogPath,
		ScalePath:     *scalePath,
		TensorPath:    *tensorPath,
		Top:           *top,
		AllowMismatch: *allowMismatch,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := rep.WriteMarkdown(w); err != nil {
		log.Fatal(err)
	}
}
