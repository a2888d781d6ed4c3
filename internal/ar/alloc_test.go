package ar

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/obs"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// trainerModels are the model configurations the trainer fixtures run,
// by subtest name: one small MADE.
func trainerModels() map[string]Config {
	made := DefaultConfig()
	made.Hidden = 16
	return map[string]Config{"made": made}
}

// buildTrainerFixture compiles a small single-relation workload into a
// ready trainer for the given model with the given worker count.
func buildTrainerFixture(t *testing.T, model Config, workers int) (*trainer, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s := twoColTable(rng, 300)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 32, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}

	cfg := DefaultTrainConfig()
	cfg.Model = model
	cfg.BatchSize = 16
	pop := float64(s.Tables[0].NumRows())
	m := NewModel(l, wl.Queries, pop, cfg.Model)
	var specs []*Spec
	var targets []float64
	for qi := range wl.Queries {
		spec, err := m.Compile(&wl.Queries[qi].Query)
		if err != nil {
			continue
		}
		card := math.Max(float64(wl.Queries[qi].Card), 1)
		specs = append(specs, spec)
		targets = append(targets, math.Log(card/pop))
	}
	if len(specs) < cfg.BatchSize {
		t.Fatalf("fixture compiled only %d specs", len(specs))
	}
	opt := nn.NewAdam(cfg.LR)
	opt.ClipMax = cfg.ClipNorm
	tr := newTrainer(m, specs, targets, cfg, opt, workers)
	batch := make([]int, cfg.BatchSize)
	for i := range batch {
		batch[i] = i
	}
	return tr, batch
}

// TestTrainStepNilObserverAllocs pins the pipeline-level pooling contract:
// with a nil observer, a warm single-worker DPS train step — mask
// construction, the full progressive chain, backward, gradient merge, and
// the Adam update — performs zero heap allocations. This is the guarantee
// that threading obs.Hooks through the trainer costs nothing when disabled
// (the check the "nil = zero overhead" claim rests on). Kernels run
// serially because the parallel path allocates goroutine bookkeeping.
func TestTrainStepNilObserverAllocs(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)

	for name, model := range trainerModels() {
		t.Run(name, func(t *testing.T) {
			tr, batch := buildTrainerFixture(t, model, 1)
			step := func() { tr.step(batch, 123, false) }
			step() // warm pool + Adam state
			step() // steady-state slice capacities
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Fatalf("warm train step with nil observer allocates %v times, want 0", n)
			}
		})
	}
}

// TestTrainStepLabeledMetricsAllocs is the live-telemetry counterpart of
// TestTrainStepNilObserverAllocs: with obs.MetricsHooks attached to a
// real registry — labeled families included — a warm train step plus its
// TrainStep hook dispatch and a pre-resolved labeled-counter update still
// performs zero heap allocations. This is the guarantee that turning
// metrics ON does not break the hot-path contract: handle resolution
// happens once at hook construction, so the per-step work is atomics only.
func TestTrainStepLabeledMetricsAllocs(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	defer tensor.SetMatMulWorkers(old)

	for name, model := range trainerModels() {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			hooks := obs.MetricsHooks(reg)
			labeled := reg.CounterVec("train_batch_rows_total", "table").With("t")

			tr, batch := buildTrainerFixture(t, model, 1)
			stepIdx := 0
			step := func() {
				loss := tr.step(batch, 123, true)
				stepIdx++
				hooks.TrainStep(obs.TrainStep{
					Step: stepIdx, Loss: loss, GradNorm: tr.lastGradNorm, Wall: 1e6,
				})
				labeled.Add(int64(len(batch)))
			}
			step() // warm pool + Adam state
			step() // steady-state slice capacities
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Fatalf("warm train step with live labeled metrics allocates %v times, want 0", n)
			}
			if got := reg.Counter("train_steps_total").Value(); got < 20 {
				t.Fatalf("hook did not reach the registry: train_steps_total = %d", got)
			}
			if got := labeled.Value(); got < int64(20*len(batch)) {
				t.Fatalf("labeled counter = %d, want ≥ %d", got, 20*len(batch))
			}
		})
	}
}

// TestTrainHooksObserveSteps drives Train end to end with hooks attached
// and checks the per-epoch and per-step signals arrive with sane values.
func TestTrainHooksObserveSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := twoColTable(rng, 200)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 24, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}

	var epochs []obs.TrainEpoch
	var steps []obs.TrainStep
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 8
	cfg.Workers = 2
	cfg.Model.Hidden = 12
	cfg.Hooks = &obs.Hooks{
		OnTrainEpoch: func(e obs.TrainEpoch) { epochs = append(epochs, e) },
		OnTrainStep:  func(st obs.TrainStep) { steps = append(steps, st) },
	}
	tr := obs.NewTrace("test")
	cfg.Span = tr.Root()
	if _, err := Train(l, wl, float64(s.Tables[0].NumRows()), cfg); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epoch events, want 3", len(epochs))
	}
	for _, e := range epochs {
		if e.Epochs != 3 || e.Steps == 0 || e.Wall <= 0 {
			t.Fatalf("bad epoch event: %+v", e)
		}
		if math.IsNaN(e.Loss) || e.GradNorm < 0 || math.IsNaN(e.GradNorm) {
			t.Fatalf("bad epoch stats: %+v", e)
		}
	}
	wantSteps := 3 * ((24 + 7) / 8)
	if len(steps) != wantSteps {
		t.Fatalf("got %d step events, want %d", len(steps), wantSteps)
	}
	if steps[len(steps)-1].Step != wantSteps {
		t.Fatalf("last step index = %d, want %d", steps[len(steps)-1].Step, wantSteps)
	}
	for _, st := range steps {
		if st.Wall <= 0 || st.GradNorm <= 0 {
			t.Fatalf("bad step event: %+v", st)
		}
	}
	// The trace must contain train > {compile, epochs} spans.
	tr.Root().End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, rec := range recs {
		names[rec.Name] = true
	}
	for _, want := range []string{"train", "compile", "epochs"} {
		if !names[want] {
			t.Fatalf("trace missing span %q (have %v)", want, names)
		}
	}
}
