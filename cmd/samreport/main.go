// Command samreport fuses the artifacts one SAM run leaves behind into a
// single Markdown report: the structured JSONL run log (samgen/sambench
// -runlog) with the phase span tree it carries, the metrics in Prometheus
// text (-metrics-out or a /metrics scrape), and the benchmark documents
// (BENCH_scale.json, BENCH_tensor.json). Inputs are joined by the run ID
// each artifact was stamped with; mixing artifacts from different runs is
// an error unless -allow-mismatch downgrades it to a warning in the
// report.
//
// Usage:
//
//	samreport [-runlog run.log] [-baseline old.log] [-metrics metrics.prom]
//	          [-scale BENCH_scale.json] [-tensor BENCH_tensor.json]
//	          [-top N] [-o report.md] [-allow-mismatch]
//
// -baseline diffs the -runlog span tree against a second run log's
// (typically from an older commit), surfacing per-span wall and
// allocation deltas; like -runlog, a baseline whose run did not finish is
// refused. -top bounds the hot-span and diff listings. With no -o the
// report goes to stdout.
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
	runlogPath := flag.String("runlog", "", "structured JSONL run log (-runlog), phase span tree included")
	baselinePath := flag.String("baseline", "", "baseline run log whose span tree -runlog's is diffed against")
	metricsPath := flag.String("metrics", "", "metrics in Prometheus text format (-metrics-out or a /metrics scrape)")
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
		RunLogPath:    *runlogPath,
		BaselinePath:  *baselinePath,
		MetricsPath:   *metricsPath,
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
