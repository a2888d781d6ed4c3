package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, gauge, and histogram from
// GOMAXPROCS goroutines; meaningful under -race, and the counter and
// histogram totals must come out exact in the scrape regardless.
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
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	want := float64(workers * perWorker)
	got := scrape(t, r)
	if got["hits"] != want {
		t.Fatalf("counter = %v, want %v", got["hits"], want)
	}
	if got["lat_count"] != want || got[`lat_bucket{le="+Inf"}`] != want {
		t.Fatalf("histogram count = %v, +Inf bucket = %v, want %v",
			got["lat_count"], got[`lat_bucket{le="+Inf"}`], want)
	}
	wantSum := 0.0
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%100) * 1e-5
	}
	wantSum *= float64(workers)
	if sum := got["lat_sum"]; math.Abs(sum-wantSum) > 1e-6*wantSum+1e-12 {
		t.Fatalf("histogram sum = %v, want %v", sum, wantSum)
	}
	if level := got["level"]; level != perWorker-1 {
		t.Fatalf("gauge = %v, want the last value set, %d", level, perWorker-1)
	}
}

// TestRegistryKindClashPanics pins that a name is one family: asking for
// it under a second kind or label count panics at registration, as do
// label names and bucket bounds the exposition cannot carry and names
// whose series would collide with a histogram's (in both registration
// orders), and what was registered before still renders exposition the
// parser accepts.
func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.CounterVec("y_total", "a").With("1").Inc()
	r.Gauge("with_dash").Set(1)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	r.Counter("q_count").Inc()
	for name, register := range map[string]func(){
		"gauge over counter":      func() { r.Gauge("x") },
		"histogram over counter":  func() { r.Histogram("x", []float64{1}) },
		"labeled over plain":      func() { r.CounterVec("x", "a") },
		"plain over labeled":      func() { r.Counter("y_total") },
		"two labels over one":     func() { r.CounterVec("y_total", "a", "b") },
		"sanitized name collides": func() { r.Counter("with-dash") },
		"repeated label":          func() { r.CounterVec("z_total", "a-b", "a_b") },
		"histogram le label":      func() { r.HistogramVec("h", []float64{1}, "le") },
		"histogram +Inf bound":    func() { r.Histogram("h_inf", []float64{1, math.Inf(1)}) },
		"histogram NaN bound":     func() { r.Histogram("h_nan", []float64{math.NaN()}) },
		"counter on hist _sum":    func() { r.Counter("lat_sum") },
		"gauge on hist _bucket":   func() { r.Gauge("lat_bucket") },
		"hist series on counter":  func() { r.Histogram("q", []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register()
		}()
	}
	got := scrape(t, r)
	if got["x"] != 1 || got[`y_total{a="1"}`] != 1 || got["with_dash"] != 1 ||
		got["lat_count"] != 1 || got["q_count"] != 1 {
		t.Fatalf("scrape after refused registrations: %v", got)
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
	var tree strings.Builder
	WriteTraceTree(&tree, AnalyzeTrace(recs))
	for _, want := range []string{"run", "  train", "    epoch", "  generate"} {
		if !strings.Contains(tree.String(), want+" ") {
			t.Fatalf("trace tree missing %q:\n%s", want, tree.String())
		}
	}
}

// TestReadTraceRejectsMalformed covers the checks both span readers
// share: empty traces, broken JSON, span id 0, orphan parents and
// repeated span ids must all error, whether the spans come as a JSONL
// trace (ReadTrace) or as a run log's span entries (RunLogSpans).
func TestReadTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not json":    "{not json\n",
		"span id 0":   `{"id":0,"parent":0,"name":"x","start_us":0,"wall_us":1}` + "\n",
		"orphan":      `{"id":5,"parent":3,"name":"x","start_us":0,"wall_us":1}` + "\n",
		"repeated id": traceRepeatedID,
	}
	for name, text := range cases {
		if _, err := ReadTrace(strings.NewReader(text)); err == nil {
			t.Errorf("ReadTrace: %s accepted", name)
		}
		if _, err := RunLogSpans(spanEntries(text)); err == nil {
			t.Errorf("RunLogSpans: %s accepted", name)
		}
	}
	a, err := ReadTrace(strings.NewReader(traceTwoSpans))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLogSpans(spanEntries(traceTwoSpans))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("readers disagree:\n%+v\n%+v", a, b)
	}
}

// spanEntries frames each non-blank line of a JSONL trace as the payload
// of a run log's span entry, between the run_start and run_end entries
// the span reader must skip.
func spanEntries(trace string) []Event {
	entries := []Event{{Seq: 1, RunID: "aa", Kind: "run_start"}}
	for _, line := range strings.Split(trace, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			entries = append(entries, Event{Seq: uint64(len(entries) + 1), RunID: "aa", Kind: "span", Data: json.RawMessage(line)})
		}
	}
	return append(entries, Event{Seq: uint64(len(entries) + 1), RunID: "aa", Kind: "run_end"})
}

// TestWriteJSONLWhileSetAttr writes a trace while another goroutine keeps
// setting attributes on one of its live spans: the writer must encode a
// snapshot of the attributes, not the map SetAttr is changing (a data
// race that -race reports).
func TestWriteJSONLWhileSetAttr(t *testing.T) {
	tr := NewTrace("run")
	sp := tr.Root().Child("merge")
	sp.SetAttr("rows", 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				sp.SetAttr(fmt.Sprint("k", i%8), i)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
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
	h.GenPhase(GenPhase{Phase: "merge", Table: "t", Tuples: 10, Groups: 4, Mass: 7.5})
	h.EvalQuery(EvalQuery{Card: 10, Truth: 20, QError: 2, Wall: time.Millisecond})
	wantScrape := func(want map[string]float64) {
		t.Helper()
		got := scrape(t, r)
		for key, v := range want {
			if got[key] != v {
				t.Fatalf("%s = %v, want %v; scrape: %v", key, got[key], v, got)
			}
		}
	}
	wantScrape(map[string]float64{
		"train_epochs_total":                1,
		"train_steps_total":                 1,
		"train_loss":                        0.5,
		"train_epochs_per_sec":              1,
		`gen_merge_groups_total{table="t"}`: 4,
		`gen_tuples_total{phase="merge"}`:   10,
		`gen_weight_mass{table="t"}`:        7.5,
		"eval_qerror_count":                 1,
	})
	h.GenProgress(GenProgress{Phase: "sample", Done: 50, Total: 100, Rate: 123})
	wantScrape(map[string]float64{"gen_tuples_per_sec": 123, "gen_progress_ratio": 0.5})
}

// TestServeDebug boots the debug server on an ephemeral port, fetches
// every endpoint, validates the Prometheus exposition parses, and checks
// the close function actually drains the server.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("boot").Inc()
	r.CounterVec("boot_labeled_total", "kind").With("a").Add(2)
	addr, closeFn, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/metrics"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Prometheus text at /metrics is the registry's one view: neither
	// expvar nor a JSON snapshot is served, and events go to the run log
	// only.
	for _, path := range []string{"/debug/vars", "/metrics.json", "/debug/events"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
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
