// Package obs is the pipeline's telemetry layer: a dependency-free
// (stdlib-only) metrics registry, phase-scoped trace spans with memory
// deltas, and observer hooks that the training, generation, and evaluation
// stages invoke. Everything is safe for concurrent use and engineered so
// that a nil observer / nil span costs nothing on the hot paths — the
// training loop's zero-allocation contract survives instrumentation.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with lock-free observation. Bucket
// i counts observations in (bounds[i-1], bounds[i]]; a final overflow
// bucket counts observations above the last bound.
type Histogram struct {
	bounds []float64 // ascending upper bounds, shared with its family
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
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
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind is what a family's children are; its String is the family's
// TYPE in the exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// family is one named metric family: a kind, a fixed list of label names,
// the bucket bounds its histograms share, and one child per distinct
// label-value tuple. A plain metric is the only child of a family with no
// labels.
type family struct {
	name   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child // keyed by the \xff-joined label values
}

// child is one metric of a family with the label values it stands for.
type child struct {
	values []string
	metric any // *Counter, *Gauge or *Histogram, per the family's kind
}

func newFamily(name string, kind metricKind, bounds []float64, labels []string) *family {
	f := &family{name: name, kind: kind, labels: make([]string, len(labels))}
	for i, l := range labels {
		f.labels[i] = sanitizeName(l, false)
		// A repeated label, or a histogram's own le, would render series
		// that mean nothing or that the parser rejects.
		if slices.Contains(f.labels[:i], f.labels[i]) || kind == kindHistogram && f.labels[i] == "le" {
			panic(fmt.Sprintf("obs: metric %s cannot take label %s", name, f.labels[i]))
		}
	}
	if kind == kindHistogram {
		for i, b := range bounds {
			// The exposition closes every histogram with its own +Inf
			// bucket, so a +Inf bound would render le="+Inf" twice.
			if math.IsInf(b, 0) || math.IsNaN(b) {
				panic(fmt.Sprintf("obs: histogram %s bound %d is %v, not finite", name, i, b))
			}
			if i > 0 && b <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
			}
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	return f
}

// Registry is a concurrent, get-or-create collection of named metric
// families; the Prometheus text that WritePrometheus renders is its one
// view. A name is one family: asking for it again under another kind or
// label count panics, like a wrong number of label values does, and so
// does a name that equals a histogram's _bucket, _sum or _count series
// (in either registration order). Like the
// rest of the obs layer it follows the nil-observer contract: on a nil
// *Registry the getters return detached metrics (recorded values go
// nowhere), WritePrometheus writes nothing, and nothing panics — so
// instrumented code needs no metrics-enabled branch. The zero value is
// also usable.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry (the one -debug-addr exports).
func Default() *Registry { return defaultRegistry }

// family returns the named family, creating it on first use; later
// callers get the first registration's label names and bounds. The name
// is mapped onto the exposition charset first, so two names that would
// render alike are one family. On a nil registry it returns a detached
// family.
func (r *Registry) family(name string, kind metricKind, bounds []float64, labels []string) *family {
	name = sanitizeName(name, true)
	if r == nil {
		return newFamily(name, kind, bounds, labels)
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		created := newFamily(name, kind, bounds, labels)
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			if other := seriesClash(r.families, name, kind); other != "" {
				r.mu.Unlock()
				panic(fmt.Sprintf("obs: metric %s would render series that collide with metric %s", name, other))
			}
			if r.families == nil {
				r.families = make(map[string]*family)
			}
			f = created
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s is a %s with %d labels, not a %s with %d",
			name, f.kind, len(f.labels), kind, len(labels)))
	}
	return f
}

// histogramSeries are the suffixes a histogram family's samples carry.
var histogramSeries = [...]string{"_bucket", "_sum", "_count"}

// seriesClash returns the family in families whose rendered sample names
// a new family name of the given kind would share, or "": name is a
// series of a registered histogram, or a new histogram's series is a
// registered name.
func seriesClash(families map[string]*family, name string, kind metricKind) string {
	for _, suffix := range histogramSeries {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f := families[base]; f != nil && f.kind == kindHistogram {
				return base
			}
		}
		if kind == kindHistogram && families[name+suffix] != nil {
			return name + suffix
		}
	}
	return ""
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns a detached counter.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later callers get the existing one regardless of bounds).
// On a nil registry it returns a detached histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramVec(name, bounds).With()
}
