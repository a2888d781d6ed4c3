// Package experiments reproduces the SAM paper's evaluation: one runner
// per table (1–9) and figure (5–8), sharing lazily built datasets,
// workloads, trained models and generated databases through a Context.
// Absolute numbers differ from the paper (synthetic datasets, CPU-scale
// model sizes — see DESIGN.md), but each experiment preserves the
// comparison the paper makes: who wins, by roughly what factor, and where
// the crossovers fall.
package experiments

import "time"

// Scale sets every size knob of the evaluation. QuickScale finishes on a
// laptop CPU in minutes; FullScale approaches the paper's workload sizes
// and runs for hours.
type Scale struct {
	CensusRows int
	DMVRows    int
	IMDBTitles int

	CensusTrainQ int // paper: 20K (and 100K for Figure 7)
	DMVTrainQ    int // paper: 20K
	IMDBTrainQ   int // paper: 100K
	TestQ        int // independent test workload per single-relation dataset
	JOBLightQ    int // paper: 70 JOB-light queries

	TinyCensusQ int // paper: 12 (all PGM can process in 12h)
	TinyDMVQ    int // paper: 7
	SmallIMDBQ  int // paper: 400

	EvalInputQ int // input-query sample used for fidelity evaluation (paper: 1000 on IMDB)

	Epochs int
	Hidden int
	Batch  int
	LR     float64

	// GenBatch is the ancestral-sampling lane count used when generating
	// databases from trained models (GenOptions.Batch); ≤ 1 means one
	// lane.
	GenBatch int

	IMDBSamples int // FOJ sample budget for IMDB generation

	Fig5SAMPoints []int
	Fig5PGMPoints []int
	PGMPointCap   time.Duration // stop growing Figure 5 PGM curve past this per-point time

	Fig6Samples []int
	Fig7Fracs   []float64
	Fig8Cov     []float64

	LatencyReps int // repetitions per latency measurement (min is kept)

	Seed int64
}

// QuickScale returns the default CPU-friendly configuration.
func QuickScale() Scale {
	return Scale{
		CensusRows: 8000,
		DMVRows:    6000,
		IMDBTitles: 1200,

		CensusTrainQ: 1200,
		DMVTrainQ:    700,
		IMDBTrainQ:   1200,
		TestQ:        250,
		JOBLightQ:    70,

		TinyCensusQ: 12,
		TinyDMVQ:    7,
		SmallIMDBQ:  150,

		EvalInputQ: 300,

		Epochs: 12,
		Hidden: 40,
		Batch:  64,
		LR:     5e-3,

		GenBatch: 64,

		IMDBSamples: 40000,

		Fig5SAMPoints: []int{75, 150, 300, 600, 1200},
		Fig5PGMPoints: []int{2, 4, 8, 12, 16, 32, 64, 128, 256, 512, 1024},
		PGMPointCap:   12 * time.Second,

		Fig6Samples: []int{5000, 10000, 20000, 40000},
		Fig7Fracs:   []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		Fig8Cov:     []float64{0.25, 0.5, 0.75, 1.0},

		LatencyReps: 5,

		Seed: 1,
	}
}

// SmokeScale returns a drastically shrunk configuration for CI smoke runs
// and trace validation: every dataset, workload, and model knob is cut to
// the minimum that still drives the full pipeline (train → sample → weight
// → merge → eval), so a single experiment finishes in seconds.
func SmokeScale() Scale {
	s := QuickScale()
	s.CensusRows = 800
	s.DMVRows = 600
	s.IMDBTitles = 200

	s.CensusTrainQ = 120
	s.DMVTrainQ = 80
	s.IMDBTrainQ = 120
	s.TestQ = 40
	s.JOBLightQ = 10

	s.TinyCensusQ = 6
	s.TinyDMVQ = 5
	s.SmallIMDBQ = 20

	s.EvalInputQ = 40

	s.Epochs = 2
	s.Hidden = 16
	s.Batch = 32

	s.IMDBSamples = 4000
	s.Fig5SAMPoints = []int{30, 60, 120}
	s.Fig5PGMPoints = []int{2, 4, 8}
	s.PGMPointCap = 2 * time.Second
	s.Fig6Samples = []int{500, 1000}
	s.LatencyReps = 1
	return s
}

// FullScale returns a configuration close to the paper's sizes; expect
// multi-hour runtimes on CPU.
func FullScale() Scale {
	s := QuickScale()
	s.CensusRows = 48000
	s.DMVRows = 100000 // paper: 11.6M; capped for CPU memory/time
	s.IMDBTitles = 20000

	s.CensusTrainQ = 20000
	s.DMVTrainQ = 20000
	s.IMDBTrainQ = 100000
	s.TestQ = 1000

	s.SmallIMDBQ = 400
	s.EvalInputQ = 1000

	s.Epochs = 8
	s.Hidden = 64

	s.IMDBSamples = 400000
	s.Fig5SAMPoints = []int{1250, 2500, 5000, 10000, 20000}
	s.Fig5PGMPoints = []int{2, 4, 8, 12, 16, 20, 24}
	s.PGMPointCap = 5 * time.Minute
	s.Fig6Samples = []int{25000, 50000, 100000, 200000, 400000}
	return s
}
