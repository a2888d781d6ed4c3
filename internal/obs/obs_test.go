package obs

import (
	"bytes"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, gauge, and histogram from
// GOMAXPROCS goroutines; meaningful under -race, and the counter and
// histogram totals must come out exact regardless.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("level")
			h := r.Histogram("lat", ExpBuckets(1e-6, 2, 24))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				g.Add(0.5)
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if got := r.Counter("hits").Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	h := r.Histogram("lat", nil)
	if got := h.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	wantSum := 0.0
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%100) * 1e-5
	}
	wantSum *= float64(workers)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum+1e-12 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	snap := r.Snapshot()
	if snap.Counters["hits"] != want || snap.Histograms["lat"].Count != want {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

// TestHistogramQuantiles checks bucket-interpolated quantiles against a
// sorted reference sample: every estimate must land within one bucket
// width of the exact quantile.
func TestHistogramQuantiles(t *testing.T) {
	bounds := ExpBuckets(0.001, 1.5, 40)
	h := NewHistogram(bounds)
	// Log-uniform-ish deterministic sample.
	var xs []float64
	v := 0.0017
	for i := 0; i < 5000; i++ {
		x := math.Mod(v*float64(i+1), 3.0) + 0.002
		xs = append(xs, x)
		h.Observe(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		exact := xs[int(math.Min(q*float64(len(xs)), float64(len(xs)-1)))]
		// Bucket width at the exact value bounds the estimation error.
		idx := sort.SearchFloat64s(bounds, exact)
		lo := 0.0
		if idx > 0 {
			lo = bounds[idx-1]
		}
		hi := exact * 2
		if idx < len(bounds) {
			hi = bounds[idx]
		}
		width := hi - lo
		if math.Abs(got-exact) > width+1e-12 {
			t.Fatalf("q=%.2f: got %v, exact %v (bucket width %v)", q, got, exact, width)
		}
	}
	if !math.IsNaN(NewHistogram(bounds).Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

// TestHistogramQuantileEdges pins the interpolation corner cases: an
// empty histogram is NaN at every quantile, a single-bucket histogram
// interpolates within the observed range, p0 reports the observed min,
// p100 the observed max, and out-of-range q clamps to [0, 1].
func TestHistogramQuantileEdges(t *testing.T) {
	empty := NewHistogram([]float64{1, 2, 3})
	for _, q := range []float64{0, 0.5, 1} {
		if !math.IsNaN(empty.Quantile(q)) {
			t.Fatalf("empty Quantile(%v) = %v, want NaN", q, empty.Quantile(q))
		}
	}

	// One bound → two buckets; keep all mass in the first so a single
	// bucket holds every observation.
	single := NewHistogram([]float64{10})
	single.Observe(2)
	single.Observe(4)
	single.Observe(6)
	if got := single.Quantile(0); got != 2 {
		t.Fatalf("single-bucket p0 = %v, want observed min 2", got)
	}
	if got := single.Quantile(1); got != 6 {
		t.Fatalf("single-bucket p100 = %v, want observed max 6", got)
	}
	if mid := single.Quantile(0.5); mid < 2 || mid > 6 {
		t.Fatalf("single-bucket p50 = %v, want within [2, 6]", mid)
	}

	// q outside [0, 1] clamps instead of extrapolating.
	if got := single.Quantile(-3); got != 2 {
		t.Fatalf("Quantile(-3) = %v, want clamp to p0 = 2", got)
	}
	if got := single.Quantile(7); got != 6 {
		t.Fatalf("Quantile(7) = %v, want clamp to p100 = 6", got)
	}

	// Overflow-only mass: everything above the last bound still reports
	// quantiles clamped to the observed range.
	over := NewHistogram([]float64{1})
	over.Observe(50)
	over.Observe(100)
	if got := over.Quantile(1); got != 100 {
		t.Fatalf("overflow p100 = %v, want 100", got)
	}
	if got := over.Quantile(0); got != 50 {
		t.Fatalf("overflow p0 = %v, want 50", got)
	}
}

// TestHistogramMinMaxClamp pins the small-sample behaviour: a single
// observation reports itself exactly at every quantile.
func TestHistogramMinMaxClamp(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 10, 6))
	h.Observe(33)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); math.Abs(got-33) > 1e-9 {
			t.Fatalf("single-sample quantile(%v) = %v, want 33", q, got)
		}
	}
}

// TestSpanNestingRoundTrip builds a nested trace, serializes it to JSONL,
// parses it back, and checks the tree structure and measurements survive.
func TestSpanNestingRoundTrip(t *testing.T) {
	tr := NewTrace("run")
	tr.Root().SetAttr("seed", 42)
	train := tr.Root().Child("train")
	ep := train.Child("epoch")
	time.Sleep(time.Millisecond)
	ep.End()
	train.End()
	gen := tr.Root().Child("generate")
	gen.SetAttr("tuples", 123)
	gen.End()
	tr.Root().End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	if byName["run"].Parent != 0 {
		t.Fatalf("root parent = %d", byName["run"].Parent)
	}
	if byName["train"].Parent != byName["run"].ID {
		t.Fatal("train should nest under run")
	}
	if byName["epoch"].Parent != byName["train"].ID {
		t.Fatal("epoch should nest under train")
	}
	if byName["epoch"].WallUS <= 0 {
		t.Fatalf("epoch wall = %dus, want > 0", byName["epoch"].WallUS)
	}
	if v, ok := byName["run"].Attrs["seed"]; !ok || v.(float64) != 42 {
		t.Fatalf("seed attr lost: %v", byName["run"].Attrs)
	}
	if v := byName["generate"].Attrs["tuples"]; v.(float64) != 123 {
		t.Fatalf("tuples attr = %v", v)
	}
	sum := SummarizeRecords(recs)
	for _, want := range []string{"run", "train", "epoch", "generate", "seed=42"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestReadTraceRejectsMalformed covers the checker used by the CI smoke
// run: empty traces, broken JSON, orphan parents and repeated span ids
// must all error.
func TestReadTraceRejectsMalformed(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := ReadTrace(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	orphan := `{"id":5,"parent":3,"name":"x","start_us":0,"wall_us":1}` + "\n"
	if _, err := ReadTrace(strings.NewReader(orphan)); err == nil {
		t.Fatal("orphan parent accepted")
	}
	if _, err := ReadTrace(strings.NewReader(traceRepeatedID)); err == nil {
		t.Fatal("repeated span id accepted")
	}
}

// traceTwoSpans is a root span with one child; traceRepeatedID reuses the
// root's id for a second span.
const (
	traceTwoSpans = `{"id":1,"parent":0,"name":"run","start_us":0,"wall_us":10,"alloc_bytes":64,"mallocs":2,"gcs":0,"attrs":{"seed":1}}
{"id":2,"parent":1,"name":"train","start_us":1,"wall_us":6,"alloc_bytes":32,"mallocs":1,"gcs":0}
`
	traceRepeatedID = traceTwoSpans + `{"id":1,"parent":2,"name":"epoch","start_us":2,"wall_us":3,"alloc_bytes":0,"mallocs":0,"gcs":0}
`
)

// TestNilTraceAndHooksAreNoOps pins the disabled-telemetry contract: nil
// receivers must be callable and free of effects.
func TestNilTraceAndHooksAreNoOps(t *testing.T) {
	var tr *Trace
	sp := tr.Root().Child("x")
	sp.SetAttr("k", 1)
	sp.End()
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var h *Hooks
	h.TrainEpoch(TrainEpoch{})
	h.TrainStep(TrainStep{})
	h.GenPhase(GenPhase{})
	h.EvalQuery(EvalQuery{})
	if h.WantsTrainStep() || h.WantsTrainEpoch() {
		t.Fatal("nil hooks want stats")
	}
	if Merge(nil, nil) != nil {
		t.Fatal("Merge of nils should be nil")
	}
}

// TestMergeFansOut checks merged hooks deliver every event to all targets.
func TestMergeFansOut(t *testing.T) {
	var a, b int
	h := Merge(&Hooks{OnTrainEpoch: func(TrainEpoch) { a++ }},
		&Hooks{OnTrainEpoch: func(TrainEpoch) { b++ }})
	h.TrainEpoch(TrainEpoch{})
	if a != 1 || b != 1 {
		t.Fatalf("fan-out a=%d b=%d", a, b)
	}
}

// TestMetricsHooksFeedRegistry wires MetricsHooks and checks the registry
// reflects emitted events.
func TestMetricsHooksFeedRegistry(t *testing.T) {
	r := NewRegistry()
	h := MetricsHooks(r)
	h.TrainEpoch(TrainEpoch{Epoch: 1, Epochs: 2, Loss: 0.5, GradNorm: 1.25, Wall: time.Second})
	h.TrainStep(TrainStep{Loss: 0.5, Wall: 2 * time.Millisecond})
	h.GenPhase(GenPhase{Phase: "merge", Table: "t", Tuples: 10, Groups: 4})
	h.GenPhase(GenPhase{Phase: "weight", Table: "t", MassBefore: 7, MassAfter: 100})
	h.EvalQuery(EvalQuery{Card: 10, Truth: 20, QError: 2, Wall: time.Millisecond})
	snap := r.Snapshot()
	if snap.Counters["train_epochs_total"] != 1 || snap.Counters["train_steps_total"] != 1 {
		t.Fatalf("train counters: %+v", snap.Counters)
	}
	if snap.Gauges["train_loss"] != 0.5 || snap.Gauges["train_epochs_per_sec"] != 1 {
		t.Fatalf("train gauges: %+v", snap.Gauges)
	}
	if snap.Counters[`gen_merge_groups_total{table="t"}`] != 4 {
		t.Fatalf("gen counters: %+v", snap.Counters)
	}
	if snap.Counters[`gen_tuples_total{phase="merge"}`] != 10 {
		t.Fatalf("gen counters: %+v", snap.Counters)
	}
	if snap.Gauges[`gen_weight_mass{table="t",stage="after"}`] != 100 {
		t.Fatalf("gen gauges: %+v", snap.Gauges)
	}
	if snap.Histograms["eval_qerror"].Count != 1 {
		t.Fatalf("eval histograms: %+v", snap.Histograms)
	}
	h.GenProgress(GenProgress{Phase: "sample", Done: 50, Total: 100, Rate: 123})
	snap = r.Snapshot()
	if snap.Gauges["gen_tuples_per_sec"] != 123 || snap.Gauges["gen_progress_ratio"] != 0.5 {
		t.Fatalf("progress gauges: %+v", snap.Gauges)
	}
}

// TestServeDebug boots the debug server on an ephemeral port, fetches
// every endpoint, validates the Prometheus exposition parses, and checks
// the close function actually drains the server.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("boot").Inc()
	r.CounterVec("boot_labeled_total", "kind").With("a").Add(2)
	ev := NewEventLog(8, "aa")
	ev.Add("train_step", TrainStep{Step: 1})
	addr, closeFn, err := ServeDebug("127.0.0.1:0", r, ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/metrics", "/metrics.json", "/debug/events"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// expvar is gone: /metrics.json is the one JSON view of the registry.
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, PromContentType)
	}
	fams, err := ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	if !names["boot"] || !names["boot_labeled_total"] {
		t.Fatalf("exposition missing families: %v", names)
	}

	closeFn()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after close")
	}
}
