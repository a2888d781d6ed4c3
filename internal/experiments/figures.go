package experiments

import (
	"fmt"
	"math/rand"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/engine"
	"sam/internal/metrics"
	"sam/internal/workload"
)

// Figure5 — processing time against the number of input queries on Census
// and IMDB: SAM scales linearly, PGM as a high-degree polynomial (the PGM
// curve stops once a point exceeds the per-point time cap).
func Figure5(c *Context) *Report {
	r := &Report{
		ID:     "fig5",
		Title:  "Processing time vs. number of input queries (seconds)",
		Header: []string{"Dataset", "Model", "#Queries", "Time(s)"},
	}
	for _, b := range []*Bundle{c.Census(), c.IMDB()} {
		for _, n := range c.Scale.Fig5SAMPoints {
			if n > b.Train.Len() {
				continue
			}
			_, el := c.SAMModel(b, n)
			r.Rows = append(r.Rows, []string{b.Name, "SAM", fmt.Sprint(n), fmt.Sprintf("%.2f", el.Seconds())})
		}
		for _, n := range c.Scale.Fig5PGMPoints {
			if n > b.Train.Len() {
				break
			}
			_, el, err := c.PGMModel(b, n)
			if err != nil {
				r.Notes = append(r.Notes, fmt.Sprintf("PGM on %s stopped at %d queries: %v", b.Name, n, err))
				break
			}
			r.Rows = append(r.Rows, []string{b.Name, "PGM", fmt.Sprint(n), fmt.Sprintf("%.2f", el.Seconds())})
			if el > c.Scale.PGMPointCap {
				r.Notes = append(r.Notes, fmt.Sprintf("PGM on %s exceeded the %v per-point cap at %d queries",
					b.Name, c.Scale.PGMPointCap, n))
				break
			}
		}
	}
	return r
}

// Figure6 — generation time and resulting median input-query Q-Error on
// IMDB as the FOJ sample budget grows.
func Figure6(c *Context) *Report {
	r := &Report{
		ID:     "fig6",
		Title:  "IMDB generation time and Q-Error vs. FOJ samples",
		Header: []string{"#Samples", "GenTime(s)", "MedianQErr"},
	}
	b := c.IMDB()
	eval := sampleQueries(b.Train, c.Scale.EvalInputQ)
	for _, k := range c.Scale.Fig6Samples {
		db, el := c.SAMDB(b, 0, k, true)
		qe := c.qErrorsOn(db, eval)
		sum := metrics.Summarize(qe)
		r.Rows = append(r.Rows, []string{fmt.Sprint(k), fmt.Sprintf("%.2f", el.Seconds()), fmtG(sum.Median)})
	}
	return r
}

// Figure7 — database recovery (cross entropy and mean test Q-Error) on
// Census as the training workload grows.
func Figure7(c *Context) *Report {
	r := &Report{
		ID:     "fig7",
		Title:  "Database recovery vs. workload size (Census)",
		Header: []string{"#Queries", "CrossEntropy(bits)", "MeanTestQErr"},
	}
	b := c.Census()
	for _, frac := range c.Scale.Fig7Fracs {
		n := int(frac * float64(b.Train.Len()))
		if n < 1 {
			continue
		}
		db, _ := c.SAMDB(b, n, 0, true)
		h := metrics.CrossEntropyBits(b.Orig.Tables[0], db.Tables[0])
		qe := c.qErrorsOn(db, b.Test.Queries)
		sum := metrics.Summarize(qe)
		r.Rows = append(r.Rows, []string{fmt.Sprint(n), fmtG(h), fmtG(sum.Mean)})
	}
	return r
}

// Figure8 — database recovery on Census as the workload's coverage ratio
// varies: literals restricted to a prefix of each column's domain.
func Figure8(c *Context) *Report {
	r := &Report{
		ID:     "fig8",
		Title:  "Database recovery vs. workload coverage ratio (Census)",
		Header: []string{"Coverage", "CrossEntropy(bits)", "MeanTestQErr"},
	}
	b := c.Census()
	s := c.Scale
	for _, cov := range s.Fig8Cov {
		rng := rand.New(rand.NewSource(s.Seed + 404))
		opts := workload.DefaultSingleRelationOptions()
		opts.CoverageRatio = cov
		queries := workload.GenerateSingleRelation(rng, b.Orig.Tables[0], b.Train.Len(), opts)
		wl := &workload.Workload{Queries: engine.Label(b.Orig, queries)}

		cfg := ar.DefaultTrainConfig()
		cfg.Epochs = s.Epochs
		cfg.BatchSize = s.Batch
		cfg.LR = s.LR
		cfg.Model.Hidden = s.Hidden
		cfg.Seed = s.Seed
		c.Logf("fig8: training SAM on census with coverage %.2f", cov)
		m, err := ar.Train(b.Layout, wl, b.Population, cfg)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("coverage %.2f: %v", cov, err))
			continue
		}
		gen, err := core.FromModel(m, b.Sizes)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("coverage %.2f: %v", cov, err))
			continue
		}
		gopts := core.DefaultGenOptions(s.Seed + 7)
		gopts.Samples = b.Sizes[b.Orig.Tables[0].Name]
		gopts.Batch = s.GenBatch
		db, err := gen.Generate(core.ModelSampler(m, gopts.Batch), gopts)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("coverage %.2f: %v", cov, err))
			continue
		}
		h := metrics.CrossEntropyBits(b.Orig.Tables[0], db.Tables[0])
		qe := c.qErrorsOn(db, b.Test.Queries)
		sum := metrics.Summarize(qe)
		r.Rows = append(r.Rows, []string{fmt.Sprintf("%.2f", cov), fmtG(h), fmtG(sum.Mean)})
	}
	return r
}

// Runner is one named experiment.
type Runner struct {
	ID  string
	Fn  func(*Context) *Report
	Doc string
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig5", Figure5, "processing time scaling (Census, IMDB)"},
		{"tab1", Table1, "input-query Q-Error, full scale (Census, DMV)"},
		{"tab2", Table2, "input-query Q-Error, tiny workloads (PGM vs SAM)"},
		{"tab3", Table3, "input-query Q-Error on IMDB, full scale"},
		{"tab4", Table4, "input-query Q-Error on IMDB, small workload"},
		{"tab5", Table5, "test-query Q-Error (database recovery)"},
		{"tab6", Table6, "JOB-light Q-Error on IMDB"},
		{"tab7", Table7, "cross entropy of generated relations"},
		{"tab8", Table8, "performance deviation, test queries"},
		{"tab9", Table9, "performance deviation, JOB-light"},
		{"fig6", Figure6, "generation time vs. FOJ samples (IMDB)"},
		{"fig7", Figure7, "recovery vs. workload size (Census)"},
		{"fig8", Figure8, "recovery vs. coverage ratio (Census)"},
		{"ext2", ExtProgressiveSamples, "extension: DPS progressive-sample sweep"},
		{"ext3", ExtIndependence, "extension: independence baseline comparison"},
	}
}
