// IMDB example: the paper's multi-relation scenario. A 6-relation
// JOB-light-style star schema is the hidden database; SAM learns a single
// autoregressive model of the full outer join from a mixed single-relation
// and join-query workload, then generates all six base relations with
// inverse probability weighting, scaling, and Group-and-Merge join-key
// assignment. The Group-and-Merge ablation is reported alongside.
//
//	go run ./examples/imdb [-titles N] [-queries N] [-epochs N] [-samples N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sam"
)

func main() {
	titles := flag.Int("titles", 1200, "title rows in the hidden database")
	queries := flag.Int("queries", 1200, "training workload size")
	epochs := flag.Int("epochs", 12, "training epochs")
	samples := flag.Int("samples", 40000, "full-outer-join samples for generation")
	flag.Parse()

	hidden := sam.IMDBLike(1, *titles)
	fmt.Printf("hidden database: %d relations, %d total rows, FOJ size %d\n",
		len(hidden.Tables), totalRows(hidden), sam.FOJSize(hidden))

	wl := &sam.Workload{Queries: sam.Label(hidden,
		sam.GenerateQueries(2, hidden, *queries, sam.DefaultWorkloadOptions(hidden)))}

	layout := sam.NewLayout(hidden)
	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.Logf = log.Printf
	cfg.Hooks = sam.ProgressHooks(os.Stderr)
	model, err := sam.Train(layout, wl, float64(sam.FOJSize(hidden)), cfg)
	if err != nil {
		log.Fatal(err)
	}

	sizes := map[string]int{}
	for _, t := range hidden.Tables {
		sizes[t.Name] = t.NumRows()
	}
	for _, gam := range []bool{true, false} {
		opts := sam.DefaultGenOptions(4)
		opts.Samples = *samples
		opts.GroupAndMerge = gam
		db, err := sam.Generate(model, sizes, opts)
		if err != nil {
			log.Fatal(err)
		}
		var qerrs []float64
		for i := range wl.Queries {
			got := sam.Card(db, &wl.Queries[i].Query)
			qerrs = append(qerrs, sam.QError(float64(got), float64(wl.Queries[i].Card)))
		}
		name := "SAM"
		if !gam {
			name = "SAM w/o Group-and-Merge"
		}
		fmt.Printf("%-24s input-query Q-Error: %v\n", name, sam.Summarize(qerrs))
		fmt.Printf("%-24s title cross entropy: %.2f bits\n", name,
			sam.CrossEntropyBits(hidden.Table("title"), db.Table("title")))
	}
}

func totalRows(s *sam.Schema) int {
	n := 0
	for _, t := range s.Tables {
		n += t.NumRows()
	}
	return n
}
