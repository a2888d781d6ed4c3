// Command workloadgen generates and labels query workloads against one of
// the built-in synthetic datasets, writing the (query, cardinality) pairs
// as JSON and the schema metadata alongside. The output feeds cmd/samgen.
//
// Usage:
//
//	workloadgen -dataset census|dmv|imdb -rows N -queries N \
//	            -out workload.json -schema schema.json [-seed N] [-coverage R]
package main

import (
	"flag"
	"log"
	"math/rand"
	"os"

	"sam/internal/ar"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/metrics"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/sqlparse"
	"sam/internal/workload"
)

func main() {
	log.SetFlags(0)
	dataset := flag.String("dataset", "census", "census, dmv, or imdb")
	rows := flag.Int("rows", 10000, "row count (titles for imdb)")
	queries := flag.Int("queries", 1000, "number of queries to generate")
	outPath := flag.String("out", "workload.json", "labeled workload output path")
	schemaPath := flag.String("schema", "schema.json", "schema metadata output path")
	seed := flag.Int64("seed", 1, "random seed")
	coverage := flag.Float64("coverage", 0, "restrict literals to this fraction of each domain (0 = full)")
	sqlFile := flag.String("sqlfile", "", "label the COUNT(*) SQL statements in this file instead of generating random queries")
	verifyModel := flag.String("verify-model", "", "also estimate the labeled cardinalities from this saved model (samgen -save) and report the Q-Error summary")
	batch := flag.Int("batch", 64, "estimation lanes for -verify-model (<=1 means one lane); sets speed only, the Q-Errors do not depend on it")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /metrics on this address (e.g. :6060)")
	flag.Parse()

	if *debugAddr != "" {
		addr, closeDebug, err := obs.ServeDebug(*debugAddr, obs.Default())
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer closeDebug()
		log.Printf("debug server on http://%s (pprof, /metrics)", addr)
	}

	var s *relation.Schema
	switch *dataset {
	case "census":
		s = datagen.Census(*seed, *rows)
	case "dmv":
		s = datagen.DMV(*seed, *rows)
	case "imdb":
		s = datagen.IMDB(*seed, *rows)
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	rng := rand.New(rand.NewSource(*seed + 1))
	var qs []workload.Query
	if *sqlFile != "" {
		raw, err := os.ReadFile(*sqlFile)
		if err != nil {
			log.Fatal(err)
		}
		qs, err = sqlparse.ParseAll(string(raw), s)
		if err != nil {
			log.Fatal(err)
		}
	} else if s.SingleTable() {
		opts := workload.DefaultSingleRelationOptions()
		opts.CoverageRatio = *coverage
		qs = workload.GenerateSingleRelation(rng, s.Tables[0], *queries, opts)
	} else {
		opts := workload.DefaultMultiRelationOptions()
		opts.CoverageRatio = *coverage
		qs = workload.GenerateMultiRelation(rng, s, *queries, opts)
	}
	wl := &workload.Workload{Queries: engine.Label(s, qs)}

	out, err := os.Create(*outPath)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := wl.Write(out); err != nil {
		log.Fatal(err)
	}

	sf, err := os.Create(*schemaPath)
	if err != nil {
		log.Fatal(err)
	}
	defer sf.Close()
	if err := s.Spec().WriteSpec(sf); err != nil {
		log.Fatal(err)
	}
	// The FOJ size is part of the schema-adjacent metadata samgen needs for
	// multi-relation training; record it as a note on stderr.
	if !s.SingleTable() {
		log.Printf("labeled %d queries; full outer join size = %d (pass to samgen -population)",
			wl.Len(), engine.FOJSize(s))
	} else {
		log.Printf("labeled %d queries over %d rows", wl.Len(), s.Tables[0].NumRows())
	}

	// Optional sanity check: how well a previously trained model predicts
	// the fresh workload's cardinalities, via batched progressive sampling.
	if *verifyModel != "" {
		mf, err := os.Open(*verifyModel)
		if err != nil {
			log.Fatal(err)
		}
		m, err := ar.Load(mf)
		mf.Close()
		if err != nil {
			log.Fatal(err)
		}
		eopts := ar.DefaultEvalOptions(*seed + 2)
		eopts.Batch = *batch
		qe := ar.EvalWorkload(m, wl.Queries, eopts, nil)
		sum := metrics.Summarize(qe)
		log.Printf("model %s vs workload: Q-Error median %.2f p90 %.2f max %.2f (%d queries, batch %d)",
			*verifyModel, sum.Median, sum.P90, sum.Max, len(qe), eopts.Batch)
	}
}
