// Quickstart: generate a synthetic single-relation database from nothing
// but a query workload — the minimal SAM flow on a hand-built table.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"sam"
)

func main() {
	// 1. The "hidden" database SAM will never read directly: 1,000 people
	// with an age column and a city that correlates with age.
	rng := rand.New(rand.NewSource(42))
	age := sam.NewColumn("age", sam.Numeric, 60)
	city := sam.NewColumn("city", sam.Categorical, 10)
	for i := 0; i < 1000; i++ {
		a := rng.Intn(60)
		age.Append(int32(a))
		city.Append(int32((a / 6) % 10))
	}
	hidden, err := sam.NewSchema(sam.NewTable("people", age, city))
	if err != nil {
		log.Fatal(err)
	}

	// 2. The workload: 150 random range/point queries, labeled with their
	// true cardinalities. This is the only thing SAM sees.
	queries := sam.GenerateQueries(1, hidden, 150, sam.DefaultWorkloadOptions(hidden))
	wl := &sam.Workload{Queries: sam.Label(hidden, queries)}
	fmt.Printf("workload: %d cardinality constraints\n", wl.Len())

	// 3. Train the autoregressive model from the constraints.
	layout := sam.NewLayout(hidden)
	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = 30
	cfg.Model.Hidden = 32
	cfg.Logf = log.Printf
	cfg.Hooks = sam.ProgressHooks(os.Stderr)
	model, err := sam.Train(layout, wl, 1000, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Generate a synthetic database of the same size.
	db, err := sam.Generate(model, map[string]int{"people": 1000}, sam.DefaultGenOptions(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d rows\n", db.Tables[0].NumRows())

	// Save it as CSV, in the layout samgen writes.
	path := filepath.Join(os.TempDir(), "sam-quickstart-people.csv")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := errors.Join(db.Tables[0].WriteCSV(f), f.Close()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)

	// 5. Fidelity: how well does the synthetic database satisfy the input
	// constraints?
	var qerrs []float64
	for i := range wl.Queries {
		got := sam.Card(db, &wl.Queries[i].Query)
		qerrs = append(qerrs, sam.QError(float64(got), float64(wl.Queries[i].Card)))
	}
	fmt.Printf("input-query Q-Error: %v\n", sam.Summarize(qerrs))
	fmt.Printf("cross entropy vs hidden data: %.2f bits\n",
		sam.CrossEntropyBits(hidden.Tables[0], db.Tables[0]))
}
