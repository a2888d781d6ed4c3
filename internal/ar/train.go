package ar

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/obs"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// TrainConfig controls Differentiable Progressive Sampling training.
type TrainConfig struct {
	Model Config

	Epochs             int
	BatchSize          int
	LR                 float64
	Tau                float64 // Gumbel-Softmax temperature
	ClipNorm           float64 // gradient clipping by global norm; 0 = off
	ProgressiveSamples int     // Monte-Carlo chains per query per step
	// Workers is the number of goroutines that pick up a step's chunks; 0
	// means GOMAXPROCS. Either way it is capped at the chunk count. It only
	// sets speed: chunks, their seeds and the merge order come from
	// BatchSize and Seed, so the trained model does not depend on it.
	Workers int
	Seed    int64

	// Logf, when non-nil, receives training warnings (workload queries
	// dropped as unsatisfiable). Per-epoch progress is a Hooks event;
	// obs.ProgressHooks prints it.
	Logf func(format string, args ...any)

	// Hooks, when non-nil, observes training: per-epoch loss/grad-norm/
	// throughput and per-step loss/latency. A nil Hooks adds zero cost —
	// the warm train step stays allocation-free (see alloc_test.go).
	Hooks *obs.Hooks
	// Span, when non-nil, is the parent trace span; Train records a
	// "train" child span with compile and epoch-loop phases under it.
	Span *obs.Span
}

// trainRowsPerChunk sizes a step's chunks: a batch splits evenly into
// min(⌈BatchSize/trainRowsPerChunk⌉, len(batch)) chunks, and chunk c of a
// step seeded stepSeed draws its Gumbel noise from stepSeed+c. The split
// and the seeds depend on the config alone, never on Workers or the host,
// so a trained model is a function of its TrainConfig minus Workers.
// Batch 64 gets two chunks.
const trainRowsPerChunk = 32

// DefaultTrainConfig returns CPU-scale defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Model:              DefaultConfig(),
		Epochs:             8,
		BatchSize:          64,
		LR:                 5e-3,
		Tau:                1.0,
		ClipNorm:           5,
		ProgressiveSamples: 1,
		Seed:               1,
	}
}

// Train fits a SAM model to the workload's cardinality constraints. The
// loss is the mean squared log-ratio between predicted and true
// cardinalities (minimizing log Q-Error), with gradients flowing through
// the progressive sampler via straight-through Gumbel-Softmax. Queries that
// are unsatisfiable in bin space are dropped with a log line.
func Train(layout *join.Layout, wl *workload.Workload, population float64, cfg TrainConfig) (*Model, error) {
	if wl.Len() == 0 {
		return nil, fmt.Errorf("ar: empty workload")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("ar: epochs and batch size must be positive")
	}
	if cfg.Tau <= 0 {
		cfg.Tau = 1.0
	}
	if cfg.ProgressiveSamples <= 0 {
		cfg.ProgressiveSamples = 1
	}
	span := cfg.Span.Child("train")
	defer span.End()
	span.SetAttr("queries", wl.Len())
	span.SetAttr("epochs", cfg.Epochs)
	span.SetAttr("batch", cfg.BatchSize)
	span.SetAttr("seed", cfg.Seed)

	compileSpan := span.Child("compile")
	m := NewModel(layout, wl.Queries, population, cfg.Model)

	// Precompile the workload.
	specs := make([]*Spec, 0, wl.Len())
	targets := make([]float64, 0, wl.Len())
	dropped := 0
	for qi := range wl.Queries {
		cq := &wl.Queries[qi]
		spec, err := m.Compile(&cq.Query)
		if err != nil {
			dropped++
			continue
		}
		card := float64(cq.Card)
		if card < 1 {
			card = 1
		}
		specs = append(specs, spec)
		targets = append(targets, math.Log(card/population))
	}
	if dropped > 0 && cfg.Logf != nil {
		cfg.Logf("ar: dropped %d unsatisfiable queries", dropped)
	}
	compileSpan.SetAttr("dropped", dropped)
	compileSpan.End()
	if len(specs) == 0 {
		return nil, fmt.Errorf("ar: no trainable queries after compilation")
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opt := nn.NewAdam(cfg.LR)
	opt.ClipMax = cfg.ClipNorm
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := newTrainer(m, specs, targets, cfg, opt, workers)

	epochsSpan := span.Child("epochs")
	defer epochsSpan.End()
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	observe := cfg.Hooks.WantsTrainStep() || cfg.Hooks.WantsTrainEpoch()
	totalSteps := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var steps int
		var epochStart time.Time
		if observe {
			epochStart = time.Now()
		}
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			var stepStart time.Time
			if observe {
				stepStart = time.Now()
			}
			loss := tr.step(batch, rng.Int63(), observe)
			epochLoss += loss
			steps++
			totalSteps++
			if cfg.Hooks.WantsTrainStep() {
				cfg.Hooks.TrainStep(obs.TrainStep{
					Step:     totalSteps,
					Loss:     loss,
					GradNorm: tr.lastGradNorm,
					Wall:     time.Since(stepStart),
				})
			}
		}
		if cfg.Hooks.WantsTrainEpoch() {
			cfg.Hooks.TrainEpoch(obs.TrainEpoch{
				Epoch:    epoch + 1,
				Epochs:   cfg.Epochs,
				Loss:     epochLoss / float64(steps),
				GradNorm: tr.lastGradNorm,
				Steps:    steps,
				Wall:     time.Since(epochStart),
			})
		}
	}
	epochsSpan.SetAttr("steps", totalSteps)
	return m, nil
}

// chunkScratch holds the per-column working slices and the MADE chain
// one chunk reuses across forwardChunk calls, so the steady-state step
// allocates nothing.
type chunkScratch struct {
	masks   []*tensor.Tensor
	anyDown []bool
	deltas  []*tensor.Tensor
	chain   *nn.Chain
}

func newChunkScratch(net *nn.MADE) chunkScratch {
	ncols := net.NumCols()
	return chunkScratch{
		masks:   make([]*tensor.Tensor, ncols),
		anyDown: make([]bool, ncols),
		deltas:  make([]*tensor.Tensor, ncols),
		chain:   net.NewChain(),
	}
}

// trainChunk is one chunk slot's persistent state: a pooled gradient tape,
// a reseedable RNG, gradient views, the scratch buffers, and the loss and
// row count of the chunk it last ran. Each slot keeps its gradients until
// the merge, whichever goroutine ran it.
type trainChunk struct {
	tape    *tensor.Graph
	rng     *rand.Rand
	grads   []*tensor.Tensor // per param; views into the tape
	scratch chunkScratch
	loss    float64
	rows    int
}

// trainer bundles the state reused across optimizer steps: one persistent
// chunk slot (tape + scratch, Reset between steps so tensor buffers are
// pooled) per chunk of a full batch, plus the merged-gradient buffers, so
// the steady state of a training run performs no per-step heap
// allocation.
type trainer struct {
	m       *Model
	specs   []*Spec
	targets []float64
	cfg     TrainConfig
	opt     *nn.Adam
	params  []*tensor.Tensor

	workers int // goroutines per step
	chunks  []*trainChunk
	pairs   []nn.GradPair // Grad fields are persistent merge buffers

	lastGradNorm float64 // global norm of the last merged gradient (observed steps only)
}

// newTrainer returns a trainer whose steps run on up to workers
// goroutines.
func newTrainer(m *Model, specs []*Spec, targets []float64, cfg TrainConfig,
	opt *nn.Adam, workers int) *trainer {
	params := m.Net.Params()
	nchunks := min((cfg.BatchSize+trainRowsPerChunk-1)/trainRowsPerChunk, len(specs))
	tr := &trainer{
		m:       m,
		specs:   specs,
		targets: targets,
		cfg:     cfg,
		opt:     opt,
		params:  params,
		workers: workers,
		chunks:  make([]*trainChunk, nchunks),
		pairs:   make([]nn.GradPair, len(params)),
	}
	for c := range tr.chunks {
		tr.chunks[c] = &trainChunk{
			tape:    tensor.NewGraph(),
			rng:     rand.New(rand.NewSource(0)),
			grads:   make([]*tensor.Tensor, len(params)),
			scratch: newChunkScratch(m.Net),
		}
	}
	for pi, p := range params {
		tr.pairs[pi] = nn.GradPair{Param: p, Grad: tensor.New(p.Rows, p.Cols)}
	}
	return tr
}

// runChunk runs chunk c of a step: rows [c·size, (c+1)·size) of the batch,
// seeded seed+c. It runs one forward+backward pass on slot c's tape and
// keeps the gradients, loss and row count in the slot.
func (tr *trainer) runChunk(c int, batch []int, size int, seed int64) {
	ch := tr.chunks[c]
	rows := batch[c*size : min((c+1)*size, len(batch))]
	ch.rng.Seed(seed + int64(c))
	ch.loss = forwardChunk(tr.m, ch.tape, &ch.scratch, tr.specs, tr.targets, rows, tr.cfg, ch.rng)
	for pi, p := range tr.params {
		ch.grads[pi] = ch.tape.ParamGrad(p)
	}
	ch.rows = len(rows)
}

// step runs one optimizer step over the batch. The batch splits evenly
// into chunks, chunk c seeded seed+c; goroutines pick chunks up in any
// order, and the gradient merge and the loss sum then run in chunk order,
// so the step's result does not depend on the goroutine count. A single
// goroutine runs the chunks inline on the caller, keeping the warm step
// allocation-free. With observe set, the merged gradient's global norm is
// recorded in lastGradNorm before clipping.
func (tr *trainer) step(batch []int, seed int64, observe bool) float64 {
	size := (len(batch) + len(tr.chunks) - 1) / len(tr.chunks)
	chunks := tr.chunks[:(len(batch)+size-1)/size]
	if workers := min(tr.workers, len(chunks)); workers <= 1 {
		for c := range chunks {
			tr.runChunk(c, batch, size, seed)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := int(next.Add(1)) - 1; c < len(chunks); c = int(next.Add(1)) - 1 {
					tr.runChunk(c, batch, size, seed)
				}
			}()
		}
		wg.Wait()
	}

	// Merge: weighted sum of per-chunk mean gradients, in chunk order.
	for pi := range tr.params {
		merged := tr.pairs[pi].Grad
		merged.Zero()
		for _, ch := range chunks {
			if ch.grads[pi] == nil {
				continue
			}
			scale := float64(ch.rows) / float64(len(batch))
			for i, gv := range ch.grads[pi].Data {
				merged.Data[i] += float64(gv * scale)
			}
		}
	}
	var lossSum float64
	for _, ch := range chunks {
		lossSum += float64(ch.loss * float64(ch.rows))
	}
	if observe {
		var norm2 float64
		for pi := range tr.pairs {
			for _, gv := range tr.pairs[pi].Grad.Data {
				norm2 += float64(gv * gv)
			}
		}
		tr.lastGradNorm = math.Sqrt(norm2)
	}
	tr.opt.Step(tr.pairs)
	return lossSum / float64(len(batch))
}

// forwardChunk builds the DPS graph for a set of queries (rows) on the
// given tape and runs backward; it returns the chunk's mean loss. The tape
// is Reset first, so all scratch comes from its pool and gradients read via
// ParamGrad stay valid until the next call with the same tape. The scratch
// slices are caller-owned and reused across calls.
func forwardChunk(m *Model, g *tensor.Graph, sc *chunkScratch, specs []*Spec, targets []float64,
	rows []int, cfg TrainConfig, rng *rand.Rand) float64 {
	n := len(rows)
	g.Reset()
	lastNeeded := fillChunkScratch(m, g, sc, specs, rows)

	var selAccum *tensor.Node
	for s := 0; s < cfg.ProgressiveSamples; s++ {
		sel := progressiveChain(m, g, sc, n, lastNeeded, cfg.Tau, rng)
		if selAccum == nil {
			selAccum = sel
		} else {
			selAccum = g.Add(selAccum, sel)
		}
	}
	if cfg.ProgressiveSamples > 1 {
		selAccum = g.Scale(selAccum, 1/float64(cfg.ProgressiveSamples))
	}

	target := g.NewTensor(n, 1)
	for r, qi := range rows {
		target.Set(r, 0, targets[qi])
	}
	diff := g.Sub(g.Log(selAccum), g.Const(target))
	loss := g.Mean(g.Square(diff))
	g.Backward(loss)
	return loss.Val.Data[0]
}

// fillChunkScratch fills the per-column masks, downweight flags and delta
// tensors of a chunk of queries (rows) into sc, allocating them on g, and
// returns the last column any of the queries constrains or downweights.
func fillChunkScratch(m *Model, g *tensor.Graph, sc *chunkScratch, specs []*Spec, rows []int) int {
	n := len(rows)
	ncols := m.Layout.NumCols()
	// Per-column mask tensors shared by all progressive samples.
	masks, anyDown, deltas := sc.masks, sc.anyDown, sc.deltas
	for i := 0; i < ncols; i++ {
		anyDown[i] = false
		deltas[i] = nil
		bins := m.Disc[i].Bins()
		mk := g.NewTensor(n, bins)
		for r, qi := range rows {
			spec := specs[qi]
			if spec.Masks[i] == nil {
				for b := 0; b < bins; b++ {
					mk.Set(r, b, 1)
				}
			} else {
				copy(mk.Row(r), spec.Masks[i])
			}
			if spec.Downweight[i] {
				anyDown[i] = true
			}
		}
		masks[i] = mk
		if anyDown[i] {
			d := g.NewTensor(n, 1)
			for r, qi := range rows {
				if specs[qi].Downweight[i] {
					d.Set(r, 0, 1)
				}
			}
			deltas[i] = d
		}
	}

	// Wildcard skipping: conditionals beyond the last constrained or
	// downweighted column contribute probability 1 and no weight factor,
	// so the progressive chain can stop early (a large saving for
	// single-relation workloads with few filters).
	lastNeeded := 0
	for _, qi := range rows {
		spec := specs[qi]
		for i := ncols - 1; i > lastNeeded; i-- {
			if spec.Masks[i] != nil || spec.Downweight[i] {
				if i > lastNeeded {
					lastNeeded = i
				}
				break
			}
		}
	}
	return lastNeeded
}

// progressiveChain runs one differentiable progressive-sampling pass up to
// column lastNeeded (inclusive) and returns the per-row selectivity
// estimate (n×1 node). Masks, downweight flags, and delta tensors are read
// from the scratch filled by forwardChunk. The MADE chain computes
// column i's logits from the samples of the columns before it, each step
// adding only what column i needs to the work of the steps before.
func progressiveChain(m *Model, g *tensor.Graph, sc *chunkScratch,
	n, lastNeeded int, tau float64, rng *rand.Rand) *tensor.Node {
	sc.chain.Reset(g, n)
	var sel, y *tensor.Node
	for i := 0; i <= lastNeeded; i++ {
		logits := sc.chain.Next(y)
		p := g.RangeProb(logits, sc.masks[i])
		if sel == nil {
			sel = p
		} else {
			sel = g.MulElem(sel, p)
		}
		if i == lastNeeded && !sc.anyDown[i] {
			break // the last sample would feed no later step and no factor
		}
		y = g.STGumbel(logits, sc.masks[i], tau, rng)
		if sc.anyDown[i] {
			val := g.Dot(y, m.Layout.Cols[i].WeightVals)
			recip := g.Reciprocal(val)
			oneMinus := g.NewTensor(n, 1)
			for r := 0; r < n; r++ {
				oneMinus.Set(r, 0, 1-sc.deltas[i].At(r, 0))
			}
			factor := g.Add(g.MulElem(recip, g.Const(sc.deltas[i])), g.Const(oneMinus))
			sel = g.MulElem(sel, factor)
		}
	}
	return sel
}
