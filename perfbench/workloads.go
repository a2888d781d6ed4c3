package main

import "sam"

// procs pins every parallelism coordinate of a run: GOMAXPROCS, training
// workers, generation and streaming workers, and the matmul kernel
// budget. The generated database is a function of these coordinates, so
// they are fixed here rather than read from the host.
const procs = 2

// trainWorkers and trainMatMulWorkers pin training to one goroutine with
// serial kernels. On a two-processor host a step that waits for two
// goroutines (or two kernel halves) waits for whichever one the garbage
// collector or a neighbouring process delayed: in one quiet spell of a
// shared host, repeats of a two-worker training spread by 10-30% and
// serial ones by about 3%. Serial kernels also
// keep the model a function of the seed: a kernel splits its rows by the
// tokens free when it starts, and the split changes the rounding.
// Generation runs with procs workers and procs kernel workers.
const (
	trainWorkers       = 1
	trainMatMulWorkers = 1
)

// workload is one named benchmark input: the hidden database and query
// workload built from the seed, the model trained on the workload, and
// the generation pass run from the model.
type workload struct {
	name string
	// build makes the hidden database; the benchmark reads it only to
	// label the query workload and to fix the target table sizes.
	build func(seed int64) *sam.Schema
	// queries is the labelled workload size.
	queries int

	// Training: epochs and optimizer batch of the MADE model.
	epochs     int
	trainBatch int

	// Generation: FOJ samples per pass and sampling lanes per worker.
	// stream selects the sharded on-disk pipeline with its shard and
	// spill-partition counts; otherwise generation runs in memory.
	samples    int
	genBatch   int
	stream     bool
	shards     int
	partitions int
}

var workloads = []workload{
	{
		// Training-bound: a large labelled join workload over the 6-relation
		// star, then a small in-memory Group-and-Merge.
		name:    "imdb-train",
		build:   func(seed int64) *sam.Schema { return sam.IMDBLike(seed, 1500) },
		queries: 1200,
		epochs:  3, trainBatch: 64,
		samples: 60000, genBatch: 64,
	},
	{
		// Streaming-bound: a tiny training run feeds 300K FOJ samples
		// through shards, spill passes A/B/C and CSV on disk. A pass takes
		// a few seconds, so a run holds well over ten of them.
		name:    "tpch-stream",
		build:   func(seed int64) *sam.Schema { return sam.TPCHLike(seed, 4000) },
		queries: 600,
		epochs:  2, trainBatch: 64,
		samples: 300000, genBatch: 64, stream: true, shards: 4, partitions: 64,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
