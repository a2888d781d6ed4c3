// Stress-test example: the paper's second motivating use case. A
// production database with strict access controls cannot be copied into a
// staging environment, but its query log (with result cardinalities) can.
// This example generates a synthetic stand-in from the log and then
// replays an unseen traffic mix against both databases, reporting the
// per-query performance deviation — the signal that tells an engineer
// whether load-testing against the synthetic database is representative.
//
//	go run ./examples/stresstest [-rows N] [-queries N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sam"
)

func main() {
	rows := flag.Int("rows", 10000, "rows in the production table")
	queries := flag.Int("queries", 1000, "logged queries available for training")
	replay := flag.Int("replay", 200, "replayed traffic queries")
	flag.Parse()

	// The "production" database: the DMV-like table (11 columns, domains
	// up to 2101 — the paper's widest single relation).
	prod := sam.DMVLike(7, *rows)
	table := prod.Tables[0]
	fmt.Printf("production database: %d rows × %d columns\n", table.NumRows(), len(table.Cols))

	// The query log the staging team is allowed to see.
	logWl := &sam.Workload{Queries: sam.Label(prod,
		sam.GenerateQueries(8, prod, *queries, sam.DefaultWorkloadOptions(prod)))}

	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = 6
	cfg.Logf = log.Printf
	cfg.Hooks = sam.ProgressHooks(os.Stderr)
	model, err := sam.Train(sam.NewLayout(prod), logWl, float64(table.NumRows()), cfg)
	if err != nil {
		log.Fatal(err)
	}
	staging, err := sam.Generate(model, map[string]int{table.Name: table.NumRows()}, sam.DefaultGenOptions(9))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("staging database generated: %d rows\n", staging.Tables[0].NumRows())

	// Replay unseen traffic against both databases and compare latency and
	// result sizes.
	traffic := sam.GenerateQueries(10, prod, *replay, sam.DefaultWorkloadOptions(prod))
	var devMs, qerrs []float64
	for i := range traffic {
		q := &traffic[i]
		cardPrig, latProd := sam.TimedCard(prod, q)
		cardStag, latStag := sam.TimedCard(staging, q)
		devMs = append(devMs, absF(latStag.Seconds()-latProd.Seconds())*1000)
		qerrs = append(qerrs, sam.QError(float64(cardStag), float64(cardPrig)))
	}
	fmt.Printf("replayed %d queries\n", len(traffic))
	fmt.Printf("result-size Q-Error:        %v\n", sam.Summarize(qerrs))
	fmt.Printf("performance deviation (ms): %v\n", sam.Summarize(devMs))
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
