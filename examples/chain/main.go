// Chain example: a TPC-H-flavoured customer ← orders ← lineitem schema,
// where join keys nest two levels deep. The workload is written as
// COUNT(*) SQL (the way real query logs look) and parsed by the built-in
// SQL front end; SAM learns the chain's joint distribution and
// Group-and-Merge assigns keys recursively down the tree.
//
//	go run ./examples/chain [-customers N] [-queries N] [-epochs N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"sam"
	"sam/internal/sqlparse"
)

func main() {
	customers := flag.Int("customers", 600, "customer rows in the hidden database")
	queries := flag.Int("queries", 800, "random training queries")
	epochs := flag.Int("epochs", 12, "training epochs")
	flag.Parse()

	hidden := sam.TPCHLike(1, *customers)
	fmt.Printf("hidden chain database: customer %d ← orders %d ← lineitem %d (FOJ %d)\n",
		hidden.Table("customer").NumRows(), hidden.Table("orders").NumRows(),
		hidden.Table("lineitem").NumRows(), sam.FOJSize(hidden))

	// A few hand-written SQL queries demonstrate the log-style front end...
	sql := `
	SELECT COUNT(*) FROM customer WHERE mktsegment <= 2;
	SELECT COUNT(*) FROM customer c, orders o
	  WHERE c.id = o.custkey AND c.mktsegment = 1 AND o.orderpriority >= 2;
	SELECT COUNT(*) FROM customer c, orders o, lineitem l
	  WHERE c.id = o.custkey AND o.id = l.orderkey AND l.quantity >= 25;`
	sqlQueries, err := sqlparse.ParseAll(sql, hidden)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d SQL queries from the log snippet\n", len(sqlQueries))

	// ...and the bulk of the workload is generated randomly, as in §5.1.
	all := append(sqlQueries,
		sam.GenerateQueries(2, hidden, *queries, sam.DefaultWorkloadOptions(hidden))...)
	wl := &sam.Workload{Queries: sam.Label(hidden, all)}

	cfg := sam.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.Logf = log.Printf
	cfg.Hooks = sam.ProgressHooks(os.Stderr)
	model, err := sam.Train(sam.NewLayout(hidden), wl, float64(sam.FOJSize(hidden)), cfg)
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[string]int{}
	for _, t := range hidden.Tables {
		sizes[t.Name] = t.NumRows()
	}
	opts := sam.DefaultGenOptions(3)
	opts.Samples = 30000
	db, err := sam.Generate(model, sizes, opts)
	if err != nil {
		log.Fatal(err)
	}

	var qerrs []float64
	for i := range wl.Queries {
		got := sam.Card(db, &wl.Queries[i].Query)
		qerrs = append(qerrs, sam.QError(float64(got), float64(wl.Queries[i].Card)))
	}
	fmt.Printf("input-query Q-Error: %v\n", sam.Summarize(qerrs))

	// Unseen 3-way chain joins: the recursive key assignment is what keeps
	// these close.
	rng := rand.New(rand.NewSource(9))
	var deep []float64
	for trial := 0; trial < 100; trial++ {
		q := sam.Query{
			Tables: []string{"customer", "orders", "lineitem"},
			Preds: []sam.Predicate{
				{Table: "customer", Column: "mktsegment", Op: sam.LE, Code: int32(rng.Intn(5))},
				{Table: "lineitem", Column: "quantity", Op: sam.GE, Code: int32(rng.Intn(50))},
			},
		}
		truth := sam.Card(hidden, &q)
		if truth == 0 {
			continue
		}
		deep = append(deep, sam.QError(float64(sam.Card(db, &q)), float64(truth)))
	}
	fmt.Printf("unseen 3-way chain joins (%d queries): %v\n", len(deep), sam.Summarize(deep))
	fmt.Println(strings.Repeat("-", 60))
	fmt.Println("generated tables:", sizesLine(db))
}

func sizesLine(s *sam.Schema) string {
	var parts []string
	for _, t := range s.Tables {
		parts = append(parts, fmt.Sprintf("%s=%d", t.Name, t.NumRows()))
	}
	return strings.Join(parts, " ")
}
