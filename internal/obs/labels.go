package obs

import (
	"strconv"
	"strings"
)

// Labeled metric families. A vector is a family of metrics of one kind
// sharing a name and a fixed set of label names; each distinct label-value
// tuple owns one child metric. Resolving a child (With) takes the family
// lock and builds a map key, so hot paths resolve their handles once up
// front and then touch only the returned *Counter/*Gauge/*Histogram —
// atomics all the way down, zero allocations per update. The nil-observer
// contract extends to vectors: every method is safe on a nil receiver and
// a nil registry hands out detached families whose children record into
// the void.

// with returns the family's child metric for the given label values (one
// per label name, in declaration order), creating it on first use. A
// wrong number of values is a programming error, like indexing out of
// range, and panics.
func (f *family) with(values []string) any {
	if len(values) != len(f.labels) {
		panic("obs: " + f.name + " needs " + strconv.Itoa(len(f.labels)) + " label values (" +
			strings.Join(f.labels, ",") + "), got " + strconv.Itoa(len(values)))
	}
	// \xff cannot appear in sane label values; colliding tuples would
	// have to embed it.
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c.metric
	}
	created := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		created.metric = &Counter{}
	case kindGauge:
		created.metric = &Gauge{}
	default:
		created.metric = newHistogram(f.bounds)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c == nil {
		if f.children == nil {
			f.children = make(map[string]*child)
		}
		c = created
		f.children[key] = c
	}
	return c.metric
}

// CounterVec is a family of counters keyed by label values.
type CounterVec family

// With returns the child counter for the given label values (one per label
// name, in declaration order), creating it on first use. Resolve once and
// keep the handle on hot paths. On a nil vector it returns a detached
// counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return &Counter{}
	}
	return (*family)(v).with(values).(*Counter)
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec family

// With returns the child gauge for the given label values, creating it on
// first use. On a nil vector it returns a detached gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return &Gauge{}
	}
	return (*family)(v).with(values).(*Gauge)
}

// HistogramVec is a family of histograms keyed by label values; all
// children share the bounds fixed at family creation.
type HistogramVec family

// With returns the child histogram for the given label values, creating
// it (with the family's bounds) on first use. On a nil vector it returns
// a detached histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return newHistogram(nil)
	}
	return (*family)(v).with(values).(*Histogram)
}

// CounterVec returns the named counter family with the given label names,
// creating it on first use; later callers get the existing family (first
// registration's label names win). On a nil registry it returns a detached
// family.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return (*CounterVec)(r.family(name, kindCounter, nil, labels))
}

// GaugeVec returns the named gauge family, creating it on first use. On a
// nil registry it returns a detached family.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	return (*GaugeVec)(r.family(name, kindGauge, nil, labels))
}

// HistogramVec returns the named histogram family with the given bounds
// and label names, creating it on first use. On a nil registry it returns
// a detached family.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	return (*HistogramVec)(r.family(name, kindHistogram, bounds, labels))
}
