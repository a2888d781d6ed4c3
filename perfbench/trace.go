package main

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"sam"
	"sam/internal/obs"
	"sam/internal/tensor"
)

// tracer is the traced run's observer: one obs.Trace whose root carries the
// run ID, plus hooks that collect the per-step, per-phase and per-query
// events. A nil *tracer is an untraced run: its spans and hooks are nil.
type tracer struct {
	trace *obs.Trace
	h     *obs.Hooks

	mu           sync.Mutex
	steps        []time.Duration          // TrainStep walls, all trainings
	groups       int                      // merge groups, all passes
	cardWalls    []time.Duration          // per-query Card, both databases
	passWall     map[string]time.Duration // StreamPass wall by pass name
	backpressure time.Duration
	spillBytes   int64
	heapPeak     uint64
	samplerNs    float64
}

func newTracer(runID string) *tracer {
	t := &tracer{trace: obs.NewTrace("perfbench"), passWall: map[string]time.Duration{}}
	t.trace.Root().SetAttr("run_id", runID)
	t.h = &obs.Hooks{
		OnTrainStep: func(s obs.TrainStep) {
			t.mu.Lock()
			t.steps = append(t.steps, s.Wall)
			t.mu.Unlock()
		},
		OnGenPhase: func(p obs.GenPhase) {
			if p.Phase != "merge" {
				return
			}
			t.mu.Lock()
			t.groups += p.Groups
			t.mu.Unlock()
		},
		OnStreamPass: func(p obs.StreamPass) {
			t.mu.Lock()
			t.passWall[p.Pass] += p.Wall
			t.backpressure += p.BackpressureWait
			if p.Pass == "A" || p.Pass == "B" || p.Pass == "C" {
				t.spillBytes += p.BytesWritten
			}
			t.mu.Unlock()
		},
		OnEvalQuery: func(q obs.EvalQuery) {
			t.mu.Lock()
			t.cardWalls = append(t.cardWalls, q.Wall)
			t.mu.Unlock()
		},
	}
	return t
}

func (t *tracer) root() *obs.Span {
	if t == nil {
		return nil
	}
	return t.trace.Root()
}

func (t *tracer) hooks() *obs.Hooks {
	if t == nil {
		return nil
	}
	return t.h
}

// watchHeap samples the heap in use every 25ms until the returned stop
// function is called, keeping the peak.
func (t *tracer) watchHeap() (stop func()) {
	if t == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			t.mu.Lock()
			t.heapPeak = max(t.heapPeak, ms.HeapInuse)
			t.mu.Unlock()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// timeHiddenCards times engine.Card on every query against the hidden
// database, one query at a time.
func (t *tracer) timeHiddenCards(in *inputs) {
	sp := t.root().Child("card")
	defer sp.End()
	for i := range in.wl.Queries {
		_, wall := sam.TimedCard(in.db, &in.wl.Queries[i].Query)
		t.mu.Lock()
		t.cardWalls = append(t.cardWalls, wall)
		t.mu.Unlock()
	}
}

// timeSampler times BatchSampler.SampleFOJBatch on its own at the
// workload's batch size: the median ns per tuple over blocks of sweeps.
func (t *tracer) timeSampler(w *workload, m *sam.Model, seed int64) {
	sp := t.root().Child("sampler")
	defer sp.End()
	const blocks, sweeps = 7, 40
	// Serial kernels, as inside a generation worker.
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(procs)
	bs := m.NewBatchSampler(w.genBatch)
	rngs := make([]*rand.Rand, w.genBatch)
	for l := range rngs {
		rngs[l] = rand.New(rand.NewSource(seed + int64(l)))
	}
	dst := make([]int32, w.genBatch*m.Layout.NumCols())
	bs.SampleFOJBatch(rngs, dst) // warm the caches
	per := make([]float64, blocks)
	for b := range per {
		t0 := time.Now()
		for s := 0; s < sweeps; s++ {
			bs.SampleFOJBatch(rngs, dst)
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(sweeps*w.genBatch)
	}
	t.samplerNs = median(per)
}

// layers derives the per-layer metrics of a finished traced run. Span
// figures come from obs.AnalyzeTrace over the run's spans and are per
// repeat; event figures are per training or per generation pass. The
// trace is also written, as JSONL, to tracePath.
func (t *tracer) layers(w *workload, res *runResult, tracePath string) (map[string]float64, error) {
	t.trace.Root().End()
	var buf bytes.Buffer
	if err := t.trace.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		return nil, err
	}
	paths := map[string]obs.PathStat{}
	for _, st := range obs.AnalyzeTrace(recs) {
		paths[st.Path] = st
	}
	// wall is the mean wall time in seconds of one span on path; alloc
	// its mean allocation in MiB.
	wall := func(path string) float64 {
		st := paths["perfbench/"+path]
		if st.Count == 0 {
			return 0
		}
		return float64(st.WallUS) / 1e6 / float64(st.Count)
	}
	alloc := func(path string) float64 {
		st := paths["perfbench/"+path]
		if st.Count == 0 {
			return 0
		}
		return float64(st.AllocBytes) / (1 << 20) / float64(st.Count)
	}
	passes := float64(len(res.gen.wall))
	perPass := func(d time.Duration) float64 { return d.Seconds() / passes }

	steps := make([]float64, len(t.steps))
	for i, d := range t.steps {
		steps[i] = float64(d.Nanoseconds()) / 1e6
	}
	cards := make([]float64, len(t.cardWalls))
	for i, d := range t.cardWalls {
		cards[i] = float64(d.Nanoseconds()) / 1e3
	}
	var csvPerRow float64
	if w.stream {
		rows := 0
		for _, n := range res.fp.Rows {
			rows += n
		}
		csvPerRow = float64(res.fp.CSVBytes) / float64(rows)
	}
	return map[string]float64{
		"datagen.build_s":            wall("setup/datagen"),
		"engine.label_s":             wall("setup/label"),
		"engine.card_us_p50":         percentile(cards, 0.50),
		"engine.card_us_p99":         percentile(cards, 0.99),
		"ar.compile_s":               wall("train/train/compile"),
		"ar.step_ms_p50":             percentile(steps, 0.50),
		"ar.step_ms_p90":             percentile(steps, 0.90),
		"ar.steps":                   float64(len(t.steps) / len(res.train.wall)),
		"ar.train_alloc_mib":         alloc("train"),
		"ar.sampler_ns_per_tuple":    t.samplerNs,
		"core.sample_s":              wall("generate/sample"),
		"core.weight_s":              wall("generate/weight"),
		"core.merge_s":               wall("generate/merge"),
		"core.merge_groups":          float64(t.groups) / passes,
		"core.gen_alloc_mib":         alloc("generate"),
		"stream.shard_s":             perPass(t.passWall["shard"]),
		"stream.backpressure_s":      perPass(t.backpressure),
		"stream.weight_s":            perPass(t.passWall["weight"]),
		"stream.pass_a_s":            perPass(t.passWall["A"]),
		"stream.pass_b_s":            perPass(t.passWall["B"]),
		"stream.pass_c_s":            perPass(t.passWall["C"]),
		"stream.heap_peak_mib":       float64(t.heapPeak) / (1 << 20),
		"stream.shard_bytes":         float64(res.fp.ShardBytes),
		"stream.spill_bytes":         float64(t.spillBytes) / passes,
		"relation.csv_bytes_per_row": csvPerRow,
	}, nil
}
