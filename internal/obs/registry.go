// Package obs is the pipeline's telemetry layer: a dependency-free
// (stdlib-only) metrics registry, phase-scoped trace spans with memory
// deltas, and observer hooks that the training, generation, and evaluation
// stages invoke. Everything is safe for concurrent use and engineered so
// that a nil observer / nil span costs nothing on the hot paths — the
// training loop's zero-allocation contract survives instrumentation.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; counters only grow).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 metric (last-write-wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with lock-free observation. Bucket
// i counts observations in (bounds[i-1], bounds[i]]; a final overflow
// bucket counts observations above the last bound.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64
	max    atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the usual latency/error bucket layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation, or 0 with no data.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns the approximate q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the containing bucket. The error is bounded by the
// bucket width; observed min/max clamp the extreme buckets so small samples
// are not smeared across a whole bucket.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	lo := math.Float64frombits(h.min.Load())
	hi := math.Float64frombits(h.max.Load())
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			// Bucket span, clamped to the observed range.
			bLo := lo
			if i > 0 && h.bounds[i-1] > bLo {
				bLo = h.bounds[i-1]
			}
			bHi := hi
			if i < len(h.bounds) && h.bounds[i] < bHi {
				bHi = h.bounds[i]
			}
			if bHi < bLo {
				bHi = bLo
			}
			frac := (rank - cum) / c
			return bLo + frac*(bHi-bLo)
		}
		cum += c
	}
	return hi
}

// HistogramSnapshot is the JSON view of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean()}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
		s.P50 = h.Quantile(0.50)
		s.P90 = h.Quantile(0.90)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// Registry is a concurrent, get-or-create collection of named metrics.
// Like the rest of the obs layer it follows the nil-observer contract: on
// a nil *Registry the getters return detached metrics (recorded values go
// nowhere), Snapshot is empty, and nothing panics — so instrumented code
// needs no metrics-enabled branch. The zero value is also usable; maps
// are allocated on first registration.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// Labeled families (see labels.go). Kept separate from the plain maps
	// so exposition can render structured labels; the flat Snapshot view
	// folds children in under rendered name{label="value"} keys.
	counterVecs   map[string]*CounterVec
	gaugeVecs     map[string]*GaugeVec
	histogramVecs map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry (the one -debug-addr exports).
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns a detached counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later callers get the existing one regardless of bounds).
// On a nil registry it returns a detached histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = NewHistogram(bounds)
		if r.histograms == nil {
			r.histograms = make(map[string]*Histogram)
		}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is the JSON view of a whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value, labeled children
// included (folded in under rendered name{label="value"} keys). A nil
// registry snapshots as empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	for _, v := range r.counterVecs {
		v.mu.RLock()
		for key, c := range v.children {
			s.Counters[renderLabels(v.name, v.labels, v.tuples[key].values)] = c.Value()
		}
		v.mu.RUnlock()
	}
	for _, v := range r.gaugeVecs {
		v.mu.RLock()
		for key, g := range v.children {
			s.Gauges[renderLabels(v.name, v.labels, v.tuples[key].values)] = g.Value()
		}
		v.mu.RUnlock()
	}
	for _, v := range r.histogramVecs {
		v.mu.RLock()
		for key, h := range v.children {
			s.Histograms[renderLabels(v.name, v.labels, v.tuples[key].values)] = h.Snapshot()
		}
		v.mu.RUnlock()
	}
	return s
}

// MarshalJSON renders the live registry (the /metrics.json payload).
func (r *Registry) MarshalJSON() ([]byte, error) { return json.Marshal(r.Snapshot()) }
