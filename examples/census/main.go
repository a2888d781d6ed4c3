// Census example: the paper's single-relation benchmarking scenario. A
// census-like table plays the hidden customer database; the cloud provider
// sees only a labeled query workload, trains SAM, generates a synthetic
// database, and evaluates both fidelity (input constraints) and recovery
// (unseen test queries, cross entropy).
//
//	go run ./examples/census [-rows N] [-queries N] [-epochs N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sam"
)

func main() {
	rows := flag.Int("rows", 8000, "rows in the hidden census-like table")
	queries := flag.Int("queries", 1200, "training workload size")
	testQ := flag.Int("test", 300, "test workload size")
	epochs := flag.Int("epochs", 8, "training epochs")
	flag.Parse()

	hidden := sam.CensusLike(1, *rows)
	table := hidden.Tables[0]
	fmt.Printf("hidden database: %d rows × %d columns (domains 2..123)\n", table.NumRows(), len(table.Cols))

	opts := sam.DefaultWorkloadOptions(hidden)
	trainQ := sam.GenerateQueries(2, hidden, *queries, opts)
	wl := &sam.Workload{Queries: sam.Label(hidden, trainQ)}
	test := &sam.Workload{Queries: sam.Label(hidden, sam.GenerateQueries(3, hidden, *testQ, opts))}

	layout := sam.NewLayout(hidden)
	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.Logf = log.Printf
	cfg.Hooks = sam.ProgressHooks(os.Stderr)
	model, err := sam.Train(layout, wl, float64(table.NumRows()), cfg)
	if err != nil {
		log.Fatal(err)
	}

	db, err := sam.Generate(model, map[string]int{table.Name: table.NumRows()}, sam.DefaultGenOptions(4))
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, w *sam.Workload) {
		var qerrs []float64
		for i := range w.Queries {
			got := sam.Card(db, &w.Queries[i].Query)
			qerrs = append(qerrs, sam.QError(float64(got), float64(w.Queries[i].Card)))
		}
		fmt.Printf("%-14s Q-Error: %v\n", name, sam.Summarize(qerrs))
	}
	report("input queries", wl)
	report("test queries", test)
	fmt.Printf("cross entropy: %.2f bits\n", sam.CrossEntropyBits(table, db.Tables[0]))
}
