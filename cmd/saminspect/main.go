// Command saminspect inspects SAM artifacts: it describes a labeled
// workload (shape, operators, coverage) and, when given a saved model,
// prints its layout, discretizer sizes, and per-column marginals sampled
// from the model — the quickest way to see what a trained model believes
// before generating a database from it.
//
// Usage:
//
//	saminspect -workload wl.json -schema schema.json [-model model.json] [-marginals N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"

	"sam/internal/ar"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/workload"
)

func main() {
	log.SetFlags(0)
	wlPath := flag.String("workload", "", "labeled workload (JSON)")
	schemaPath := flag.String("schema", "", "schema metadata (JSON)")
	modelPath := flag.String("model", "", "model saved by samgen -save")
	marginals := flag.Int("marginals", 2000, "samples used to estimate model marginals")
	batch := flag.Int("batch", 64, "ancestral-sampling lanes for marginal estimation (<=1 means one lane)")
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

	var spec relation.SchemaSpec
	if *schemaPath != "" {
		f, err := os.Open(*schemaPath)
		if err != nil {
			log.Fatal(err)
		}
		spec, err = relation.ReadSpec(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== schema ==")
		for _, t := range spec.Tables {
			fmt.Printf("  %-16s %8d rows, %d columns", t.Name, t.Rows, len(t.Columns))
			if t.Parent != "" {
				fmt.Printf(", FK → %s", t.Parent)
			}
			fmt.Println()
		}
	}

	if *wlPath != "" {
		f, err := os.Open(*wlPath)
		if err != nil {
			log.Fatal(err)
		}
		wl, err := workload.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== workload ==")
		fmt.Print(workload.ComputeStats(wl).String())
		if *schemaPath != "" {
			domains := map[string]int{}
			for _, t := range spec.Tables {
				for _, c := range t.Columns {
					domains[t.Name+"."+c.Name] = c.Domain
				}
			}
			ratios := workload.CoverageRatios(wl, domains)
			keys := make([]string, 0, len(ratios))
			for k := range ratios {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Println("coverage (literal span / domain):")
			for _, k := range keys {
				fmt.Printf("  %-28s %.2f\n", k, ratios[k])
			}
		}
	}

	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		m, err := ar.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("== model ==")
		fmt.Printf("  MADE %d×%d, %d parameters, population %.0f\n",
			m.Cfg.HiddenLayers, m.Cfg.Hidden, m.Net.NumParams(), m.Population)
		fmt.Printf("  %d model columns:\n", m.Layout.NumCols())
		marg := sampleMarginals(m, *marginals, *batch)
		for i, c := range m.Layout.Cols {
			fmt.Printf("  %-28s %-9s %4d bins  top: %s\n",
				c.Name(), c.Kind, m.Disc[i].Bins(), topBins(marg[i], 3))
		}
	}
}

// sampleMarginals estimates per-column bin frequencies from n ancestral
// samples, drawn max(batch, 1) lanes at a time. Sample i draws from
// stream ar.SplitSeed(1, i), as a generation run with seed 1 would.
func sampleMarginals(m *ar.Model, n, batch int) [][]float64 {
	ncols := m.Layout.NumCols()
	out := make([][]float64, ncols)
	for i := range out {
		out[i] = make([]float64, m.Disc[i].Bins())
	}
	if n <= 0 {
		return out
	}
	batch = max(batch, 1)
	s := m.NewBatchSampler(batch)
	rngs := make([]*rand.Rand, batch)
	for l := range rngs {
		rngs[l] = ar.NewSampleRand(0)
	}
	dst := make([]int32, batch*ncols)
	for drawn := 0; drawn < n; drawn += batch {
		lanes := min(batch, n-drawn)
		for l, r := range rngs[:lanes] {
			r.Seed(ar.SplitSeed(1, drawn+l))
		}
		s.SampleFOJBatch(rngs[:lanes], dst[:lanes*ncols])
		for l := 0; l < lanes; l++ {
			for i, b := range dst[l*ncols : (l+1)*ncols] {
				out[i][b]++
			}
		}
	}
	for i := range out {
		for b := range out[i] {
			out[i][b] /= float64(n)
		}
	}
	return out
}

// topBins renders the k most probable bins of a marginal.
func topBins(marg []float64, k int) string {
	type bp struct {
		bin int
		p   float64
	}
	bps := make([]bp, len(marg))
	for b, p := range marg {
		bps[b] = bp{b, p}
	}
	sort.Slice(bps, func(i, j int) bool { return bps[i].p > bps[j].p })
	if k > len(bps) {
		k = len(bps)
	}
	s := ""
	for i := 0; i < k; i++ {
		if bps[i].p == 0 {
			break
		}
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%.2f", bps[i].bin, bps[i].p)
	}
	return s
}
