package tensor_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// TestMADEPipelinePinned holds the MADE pipeline's bits across commits. It
// trains a small MADE on an IMDB-like join workload and generates a
// database from it, then pins two FNV-1a hashes: the model's parameter
// bits, in Params order (perfbench's model_hash), and the generated
// tables' CSVs, in schema order. Both must hold at GOMAXPROCS 1 and 2, at
// training and generation Workers 1 and 2, and with the vector kernels on
// and off: the model and the database are functions of the seeds alone.
// A change to training, sampling or the merge that moves one bit fails
// here. The hashes are amd64 figures from a host with FMA: math.Exp takes
// an FMA path at run time where the CPU has one, and other architectures
// may fuse float multiply-adds.
func TestMADEPipelinePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("model and database bits are pinned on amd64 only")
	}
	const wantModel, wantDB = "211dfbedb70e549b", "1337ad7fe948b475"
	db := datagen.IMDB(5, 300)
	queries := workload.GenerateMultiRelation(rand.New(rand.NewSource(6)), db, 96,
		workload.DefaultMultiRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(db, queries)}
	sizes := map[string]int{}
	for _, tab := range db.Tables {
		sizes[tab.Name] = tab.NumRows()
	}
	run := func(workers int) (model, gen string) {
		cfg := ar.DefaultTrainConfig()
		cfg.Epochs = 2
		cfg.BatchSize = 64
		cfg.Workers = workers
		cfg.Seed = 7
		cfg.Model.Hidden = 32
		m, err := ar.Train(join.NewLayout(db), wl, float64(engine.FOJSize(db)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mh := fnv.New64a()
		var b [8]byte
		for _, p := range m.Net.Params() {
			for _, v := range p.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				mh.Write(b[:])
			}
		}
		g, err := core.FromModel(m, sizes)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultGenOptions(8)
		opts.Samples = 3000
		opts.Workers = workers
		opts.Batch = 32
		out, err := g.Generate(core.ModelSampler(m, opts.Batch), opts)
		if err != nil {
			t.Fatal(err)
		}
		dh := fnv.New64a()
		for _, tab := range out.Tables {
			if err := tab.WriteCSV(dh); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%016x", mh.Sum64()), fmt.Sprintf("%016x", dh.Sum64())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer tensor.SetVectorKernels(tensor.SetVectorKernels(true))
	for _, vec := range []bool{true, false} {
		tensor.SetVectorKernels(vec)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2} {
				model, gen := run(workers)
				if model != wantModel || gen != wantDB {
					t.Errorf("vector kernels %v, GOMAXPROCS %d, Workers %d: model %s, database %s; want %s, %s",
						vec, procs, workers, model, gen, wantModel, wantDB)
				}
			}
		}
	}
}
