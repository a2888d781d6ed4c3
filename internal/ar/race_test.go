package ar

import (
	"math/rand"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// TestTrainConcurrentWorkersRace drives the full DPS training loop with
// several trainStep goroutines sharing the model (MADE with its
// masked-weight caches) and the parallel matmul kernels, then samples
// from the trained model on
// concurrent BatchSamplers — the configuration the per-chunk pooled
// tapes and the cache's dirty-bit protocol must keep race-free. The test is
// meaningful under -race; without it it is just a smoke test.
func TestTrainConcurrentWorkersRace(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(4)
	defer tensor.SetMatMulWorkers(old)

	for name, model := range trainerModels() {
		t.Run(name, func(t *testing.T) { trainAndSampleConcurrently(t, model) })
	}
}

// trainAndSampleConcurrently trains the model with four workers on four
// chunks per step and then samples from it on four concurrent
// BatchSamplers.
func trainAndSampleConcurrently(t *testing.T, model Config) {
	rng := rand.New(rand.NewSource(29))
	s := twoColTable(rng, 200)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 32, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}

	cfg := DefaultTrainConfig()
	cfg.Model = model
	cfg.Epochs = 3
	cfg.BatchSize = 128 // four chunks of the 32-query batch
	cfg.Workers = 4
	cfg.Seed = 31
	m, err := Train(l, wl, float64(s.Tables[0].NumRows()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The sampling path reads the same masked-weight caches concurrently:
	// two per-tuple samplers and two 8-lane ones.
	lanes := []int{1, 1, 8, 8}
	done := make(chan struct{}, len(lanes))
	for w, b := range lanes {
		go func(seed int64, b int) {
			defer func() { done <- struct{}{} }()
			smp := m.NewBatchSampler(b)
			rngs := make([]*rand.Rand, b)
			for k := range rngs {
				rngs[k] = rand.New(rand.NewSource(seed + int64(k)))
			}
			dst := make([]int32, b*l.NumCols())
			for i := 0; i < 20; i++ {
				smp.SampleFOJBatch(rngs, dst)
			}
		}(int64(w)*100+41, b)
	}
	for range lanes {
		<-done
	}
}
