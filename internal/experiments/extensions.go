package experiments

import (
	"fmt"
	"time"

	"sam/internal/ar"
	"sam/internal/indep"
	"sam/internal/metrics"
	"sam/internal/relation"
)

// ExtProgressiveSamples sweeps the number of Monte-Carlo chains per query
// during DPS training (the paper leaves improving the sampler as future
// work; §7) on a reduced census workload.
func ExtProgressiveSamples(c *Context) *Report {
	r := &Report{
		ID:     "ext2",
		Title:  "DPS progressive samples per query (Census)",
		Header: []string{"Samples", "TrainTime(s)", "MedianQErr", "MeanQErr"},
	}
	b := c.Census()
	s := c.Scale
	nQ := b.Train.Len()
	if nQ > 400 {
		nQ = 400
	}
	wl := b.Train.Prefix(nQ)
	for _, ps := range []int{1, 2, 4} {
		cfg := ar.DefaultTrainConfig()
		cfg.Epochs = s.Epochs
		if cfg.Epochs > 6 {
			cfg.Epochs = 6
		}
		cfg.BatchSize = s.Batch
		cfg.LR = s.LR
		cfg.Seed = s.Seed
		cfg.Model.Hidden = s.Hidden
		cfg.ProgressiveSamples = ps
		c.Logf("ext2: training with %d progressive samples", ps)
		start := time.Now()
		m, err := ar.Train(b.Layout, wl, b.Population, cfg)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("ps=%d: %v", ps, err))
			continue
		}
		trainTime := time.Since(start)
		// Batched model-side evaluation: warm per-worker samplers instead
		// of a fresh inference buffer per estimate.
		eopts := ar.EvalOptions{Samples: 8, Batch: s.GenBatch, Seed: s.Seed + 17}
		qe := ar.EvalWorkload(m, wl.Queries, eopts, nil)
		sum := metrics.Summarize(qe)
		r.Rows = append(r.Rows, []string{fmt.Sprint(ps),
			fmt.Sprintf("%.2f", trainTime.Seconds()), fmtG(sum.Median), fmtG(sum.Mean)})
	}
	return r
}

// ExtIndependence adds the classic independence strawman (per-column
// histograms, §2.3's Limitation 1) next to PGM and SAM on Census database
// recovery: test-query Q-Error and cross entropy.
func ExtIndependence(c *Context) *Report {
	r := &Report{
		ID:     "ext3",
		Title:  "Independence baseline vs PGM vs SAM (Census recovery)",
		Header: []string{"Model", "MedianTestQErr", "MeanTestQErr", "CrossEntropy(bits)"},
	}
	b := c.Census()
	addRow := func(name string, db *relation.Schema) {
		qe := c.qErrorsOn(db, b.Test.Queries)
		sum := metrics.Summarize(qe)
		h := metrics.CrossEntropyBits(b.Orig.Tables[0], db.Tables[0])
		r.Rows = append(r.Rows, []string{name, fmtG(sum.Median), fmtG(sum.Mean), fmtG(h)})
	}

	im, err := indep.Train(b.Orig, b.Train, b.Sizes)
	if err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("indep: %v", err))
	} else if db, err := im.Generate(c.Scale.Seed + 19); err == nil {
		addRow("INDEP", db)
	}
	if db, _, err := c.PGMDB(b, c.Scale.TinyCensusQ); err == nil {
		addRow("PGM", db)
	}
	db, _ := c.SAMDB(b, 0, 0, true)
	addRow("SAM", db)
	r.Notes = append(r.Notes,
		"INDEP consumes the full workload's single-predicate constraints; PGM its feasible prefix; SAM the full workload")
	return r
}
