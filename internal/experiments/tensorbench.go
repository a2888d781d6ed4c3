package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// TensorBenchResult records one micro-benchmark of the tensor hot path, with
// the measured numbers next to the pre-overhaul baseline so regressions (or
// claimed speedups) are visible in one file.
type TensorBenchResult struct {
	Name string `json:"name"`
	// Before* fields are the recorded baseline numbers of
	// tensorBenchBaselines, taken on the 2-vCPU reference host.
	BeforeNsOp     int64   `json:"before_ns_op"`
	BeforeAllocsOp int64   `json:"before_allocs_op"`
	NsOp           int64   `json:"ns_op"`
	AllocsOp       int64   `json:"allocs_op"`
	BytesOp        int64   `json:"bytes_op"`
	Speedup        float64 `json:"speedup"`
	// Commit and MatmulWorkers pin the provenance of each row: the VCS
	// revision the measuring binary was built from and the kernel worker
	// limit in force while this benchmark ran (sample_batched_workers can
	// legitimately differ from the report-level setting).
	Commit        string `json:"commit,omitempty"`
	MatmulWorkers int    `json:"matmul_workers"`
}

// TensorBenchReport is the document written to BENCH_tensor.json.
// VectorKernels records whether the AVX2 twins ran (tensor.VectorKernels);
// a host without them runs the Go loops, and benchgate applies the floors
// that assume the twins only when they ran.
type TensorBenchReport struct {
	Description   string              `json:"description"`
	Meta          obs.Meta            `json:"meta"`
	Workers       int                 `json:"matmul_workers"`
	VectorKernels bool                `json:"vector_kernels"`
	Results       []TensorBenchResult `json:"results"`
}

// Pre-overhaul baselines, measured at the seed commit in a side worktree on
// the same machine (best of 3 × 2s runs, serial kernels). The benchmark
// bodies below mirror the seed benchmarks exactly: matmul is 64×512·512×64
// into a preallocated destination; made_forward_infer computes every logit
// of a single row of a MADE over colSizes {64,32,16,128,8,4,50}, hidden
// 64×2: batch 1 of BatchInference, Reset and then ForwardCol and one
// SetInput per column (the seed timed one full forward of a dedicated
// single-row engine, the same output).
// The three sampling rows share one baseline: the per-tuple cost of the
// single-row sampler that batch 1 of BatchSampler replaced, as recorded in
// BENCH_tensor.json at the commit before that change (GOMAXPROCS=1). Their
// speedups are the batched-vs-old-per-tuple throughput ratios the bench
// gate asserts on. dps_train_step's baseline is the full-width DPS step that
// prefix-restricted training replaced (every progressive step ran the whole
// MADE and sliced out column i's block), measured with the same body at
// the commit before that change on a 2-vCPU host at GOMAXPROCS=1: best of
// four runs interleaved with runs of the new code. exp_row_mass's
// baseline is the same body at the commit before the AVX2 kernels, when
// ExpRowMass ran only the scalar Go loop: best of four runs interleaved
// with runs of the vector code, GOMAXPROCS=1, on the same host.
// label_workload's baseline is the same body at the commit before dense
// join counting, when every join edge of every query counted into a hash
// map keyed by parent primary key: best of four runs interleaved with
// runs of the dense engine, GOMAXPROCS=1, 2-vCPU host.
// prefix_block_64's baseline is the output-block kernel batched sampling
// ran before the lane-tiled prefix matmul, MatMulNZBlockBiasInto (an axpy
// over each lane's listed nonzero activations, bias first), on the same
// inputs with the nonzero lists built outside the timer: best of eight
// 1–2 s runs interleaved with runs of the new code, GOMAXPROCS=1, 2-vCPU
// host. transb_window_64's baseline is the same body on the dot-product
// a·bᵀ kernel (dot4, four scalar sums per pass, skipping zero gradients)
// that the input gradient ran on before the prefix tiles: best of
// nineteen best-of-three runs interleaved with runs of the new code,
// GOMAXPROCS=1, 2-vCPU host.
var tensorBenchBaselines = map[string][2]int64{ // name → {ns/op, allocs/op}
	"matmul_512":             {1539014, 0},
	"made_forward_infer":     {9636, 0},
	"sample_per_tuple":       {53941, 0},
	"sample_batched":         {53941, 0},
	"sample_batched_workers": {53941, 0},
	"dps_train_step":         {61323092, 0},
	"exp_row_mass":           {5438, 0},
	"label_workload":         {15635955, 1874},
	"prefix_block_64":        {173063, 0},
	"transb_window_64":       {668794, 0},
}

// RunTensorBench benchmarks the tensor hot paths (dense matmul, the MADE
// inference forward, its widest output block and that block's input
// gradient, ancestral sampling, ExpRowMass, one DPS training step with
// Adam) and exact workload labelling, and returns the results paired with
// the seed baselines.
func RunTensorBench() *TensorBenchReport {
	rep := &TensorBenchReport{
		Description:   "tensor hot-path micro-benchmarks; before_* columns are recorded baselines: the pre-overhaul seed (sample_*: the old single-row sampler's per-tuple cost; dps_train_step: the full-width DPS training step; label_workload: the hash-map join counting engine; prefix_block_64: the nonzero-list output-block kernel; transb_window_64: the dot-product input-gradient kernel)",
		Meta:          obs.BuildMeta(),
		Workers:       tensor.MatMulWorkers(),
		VectorKernels: tensor.VectorKernels(),
	}

	add := func(name string, fn func(b *testing.B)) {
		// Best of three runs: the shared CI machines this runs on jitter by
		// 50%+ between runs, and the minimum is the stablest estimate of
		// the code's actual cost (the baselines were taken the same way).
		r := testing.Benchmark(fn)
		for i := 0; i < 2; i++ {
			if rr := testing.Benchmark(fn); rr.NsPerOp() < r.NsPerOp() {
				r = rr
			}
		}
		base := tensorBenchBaselines[name]
		res := TensorBenchResult{
			Name:           name,
			BeforeNsOp:     base[0],
			BeforeAllocsOp: base[1],
			NsOp:           r.NsPerOp(),
			AllocsOp:       r.AllocsPerOp(),
			BytesOp:        r.AllocedBytesPerOp(),
			Commit:         rep.Meta.Commit,
			MatmulWorkers:  tensor.MatMulWorkers(),
		}
		if res.NsOp > 0 {
			res.Speedup = float64(res.BeforeNsOp) / float64(res.NsOp)
		}
		rep.Results = append(rep.Results, res)
	}

	add("matmul_512", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		a := tensor.New(64, 512)
		a.Randn(rng, 1)
		w := tensor.New(512, 64)
		w.Randn(rng, 1)
		dst := tensor.New(64, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dst, a, w)
		}
	})

	add("exp_row_mass", func(b *testing.B) {
		// One logit row as wide as the IMDB layout's output (857 logits,
		// keyword_id's 500 among them), exponentiated and summed as the
		// sampler does per lane and column step.
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, 857)
		for i := range src {
			src[i] = rng.NormFloat64() * 2
		}
		dst := make([]float64, len(src))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.ExpRowMass(dst, src)
		}
	})

	add("prefix_block_64", func(b *testing.B) {
		// The logit block of IMDB's 500-bin keyword_id column for 64 lanes:
		// every one of the 64 last-layer hidden units feeds it.
		dst, h, w, off, prefix, bias := prefixBlockInputs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulPrefixInto(dst, h, w, off, prefix, 0, dst.Cols)
			for r := 0; r < dst.Rows; r++ {
				row := dst.Row(r)
				for j, bv := range bias {
					row[j] += bv
				}
			}
		}
	})

	add("transb_window_64", func(b *testing.B) {
		// The input gradient of that block's window: 64 rows of signed
		// logit gradients times its 64 hidden rows × 500 columns of W∘M,
		// copied out as b, into the 64 hidden units.
		g, w, dst := transBWindowInputs()
		tape := tensor.NewGraph()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tape.MatMulTransBAddInto(dst, g, w)
		}
	})

	add("made_forward_infer", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		colSizes := []int{64, 32, 16, 128, 8, 4, 50}
		m := nn.NewMADE(rng, colSizes, 64, 2)
		buf := m.NewBatchInference(1)
		row := make([]int, len(colSizes))
		for c, size := range colSizes {
			row[c] = m.Offsets()[c] + rng.Intn(size)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			for c, flat := range row {
				buf.ForwardCol(c)
				buf.SetInput(0, flat)
			}
		}
	})

	add("sample_per_tuple", func(b *testing.B) {
		m := benchSamplerModel()
		s := m.NewBatchSampler(1)
		rngs := []*rand.Rand{ar.NewSampleRand(0)}
		dst := make([]int32, m.Layout.NumCols())
		b.ReportAllocs()
		b.ResetTimer()
		// Each tuple draws from its own stream, as in generation.
		for i := 0; i < b.N; i++ {
			rngs[0].Seed(ar.SplitSeed(7, i))
			s.SampleFOJBatch(rngs, dst)
		}
	})

	add("sample_batched", func(b *testing.B) {
		m := benchSamplerModel()
		const lanes = 64
		s := m.NewBatchSampler(lanes)
		rngs := make([]*rand.Rand, lanes)
		for l := range rngs {
			rngs[l] = ar.NewSampleRand(0)
		}
		dst := make([]int32, lanes*m.Layout.NumCols())
		b.ReportAllocs()
		b.ResetTimer()
		// One iteration = one tuple, so ns/op is directly comparable with
		// sample_per_tuple; each sweep draws a whole batch, every lane
		// reseeded to its tuple's stream as in generation.
		for drawn := 0; drawn < b.N; drawn += lanes {
			for l, r := range rngs {
				r.Seed(ar.SplitSeed(7, drawn+l))
			}
			s.SampleFOJBatch(rngs, dst)
		}
	})

	add("sample_batched_workers", func(b *testing.B) {
		// Two sampling goroutines (Workers 2, one shard each), each
		// advancing 64 batched lanes, through core's real scheduling path:
		// SampleShards over the memory store, chunk writes included. The
		// matmul worker limit does not change the goroutine count. The
		// bench forces GOMAXPROCS ≥ 2 so both goroutines can run at once;
		// on a single-core host it measures the second worker's overhead
		// rather than scaling, and the gate bounds that: adding a worker
		// must not wreck batched throughput.
		if prev := runtime.GOMAXPROCS(0); prev < 2 {
			runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(prev)
		}
		m := benchSamplerModel()
		g, err := core.FromModel(m, map[string]int{"t": 1000})
		if err != nil {
			panic(err)
		}
		const lanes = 64
		opts := core.StreamOptions{GenOptions: core.DefaultGenOptions(7), Shards: 2}
		opts.Workers = 2
		opts.Batch = lanes
		newSampler := core.ModelSampler(m, lanes)
		// Tuples per SampleShards call: large enough that the per-call
		// sampler construction (one BatchSampler per worker goroutine)
		// amortizes below the noise floor, small enough to fit b.N.
		const per = 2 * lanes * 32
		b.ReportAllocs()
		b.ResetTimer()
		// One iteration = one tuple, comparable with sample_per_tuple.
		for drawn := 0; drawn < b.N; drawn += per {
			if _, err := g.SampleShards(newSampler, per, opts); err != nil {
				panic(err)
			}
		}
	})

	add("label_workload", func(b *testing.B) {
		// Exact labelling of dps_train_step's workload with one worker:
		// the ground-truth side of every training and evaluation run.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		db, queries := imdbBenchWorkload()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.Label(db, queries)
		}
	})

	add("dps_train_step", dpsTrainStep)

	return rep
}

// dpsTrainStep times one optimizer step of Differentiable
// Progressive Sampling training of the default MADE (64×2) on the
// IMDB-like join layout (12 columns of 4 to 500 bins, 835 one-hot
// inputs): batch 64 in two 32-row chunks run by one training worker,
// serial kernels. The workload is exactly one batch of 64 join queries
// and Train runs b.N+2 epochs of one step each; the timer
// starts when the second step ends, so model set-up, query compilation and
// the tape's pool warm-up are excluded and allocs/op counts warm steps
// only.
func dpsTrainStep(b *testing.B) {
	db, queries := imdbBenchWorkload()
	wl := &workload.Workload{Queries: engine.Label(db, queries)}
	layout := join.NewLayout(db)
	pop := float64(engine.FOJSize(db))
	cfg := ar.DefaultTrainConfig()
	cfg.BatchSize = 64
	cfg.Workers = 1
	cfg.Seed = 3
	cfg.Epochs = b.N + 2
	cfg.Hooks = &obs.Hooks{OnTrainStep: func(st obs.TrainStep) {
		if st.Step == 2 {
			b.StartTimer()
		}
	}}

	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)
	b.ReportAllocs()
	b.StopTimer()
	b.ResetTimer()
	if _, err := ar.Train(layout, wl, pop, cfg); err != nil {
		b.Fatal(err)
	}
}

// imdbBenchWorkload is the IMDB-like database at 1500 titles and 64 join
// queries drawn from it, shared by dps_train_step and label_workload.
func imdbBenchWorkload() (*relation.Schema, []workload.Query) {
	db := datagen.IMDB(1, 1500)
	queries := workload.GenerateMultiRelation(rand.New(rand.NewSource(2)), db, 64,
		workload.DefaultMultiRelationOptions())
	return db, queries
}

// prefixBlockInputs returns prefix_block_64's operands: 64 lanes of
// ReLU-like activations of 64 hidden units (about half zeros), an output
// product as wide as the IMDB layout's 891 logits, whose 500-bin keyword_id
// block starts at column 391 and reads every hidden unit, and that block's
// destination, bias and prefixes.
func prefixBlockInputs() (dst, h, w *tensor.Tensor, off int, prefix []int, bias []float64) {
	rng := rand.New(rand.NewSource(1))
	h, w = tensor.New(64, 64), tensor.New(64, 891)
	for i := range h.Data {
		h.Data[i] = max(rng.NormFloat64(), 0)
	}
	w.Randn(rng, 0.2)
	bias, prefix = make([]float64, 500), make([]int, 500)
	for j := range bias {
		bias[j], prefix[j] = rng.NormFloat64(), 64
	}
	return tensor.New(64, 500), h, w, 391, prefix, bias
}

// transBWindowInputs returns transb_window_64's operands: a 64×500
// gradient of the keyword_id logit block, the block's 64×500 window of the
// output product, and the 64×64 destination.
func transBWindowInputs() (g, w, dst *tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	g, w = tensor.New(64, 500), tensor.New(64, 500)
	g.Randn(rng, 0.01)
	w.Randn(rng, 0.2)
	return g, w, tensor.New(64, 64)
}

// benchSamplerModel builds an untrained single-table MADE model matching
// the made_forward_infer net (colSizes {64,32,16,128,8,4,50}, hidden
// 64×2) for the ancestral-sampling benchmarks; sampling cost does not
// depend on the weights being trained.
func benchSamplerModel() *ar.Model {
	colSizes := []int{64, 32, 16, 128, 8, 4, 50}
	cols := make([]*relation.Column, len(colSizes))
	for i, s := range colSizes {
		cols[i] = relation.NewColumn(fmt.Sprintf("c%d", i), relation.Categorical, s)
	}
	s, err := relation.NewSchema(relation.NewTable("t", cols...))
	if err != nil {
		panic(err)
	}
	layout := join.NewLayout(s)
	return ar.NewModel(layout, nil, 1000,
		ar.Config{Hidden: 64, HiddenLayers: 2, Seed: 3})
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *TensorBenchReport) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
