package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Trace collects a tree of phase spans for one run. All methods are safe
// for concurrent use and safe on a nil receiver (a nil *Trace or nil *Span
// is "tracing disabled" and costs a branch).
type Trace struct {
	mu    sync.Mutex
	start time.Time
	next  int64
	spans []*Span
	root  *Span
}

// Span is one phase of a run: wall time plus allocation and GC deltas
// (from runtime.ReadMemStats at start and end), with optional attributes.
type Span struct {
	tr     *Trace
	id     int64
	parent int64
	name   string

	start      time.Time
	startAlloc uint64 // MemStats.TotalAlloc
	startMall  uint64 // MemStats.Mallocs
	startGC    uint32 // MemStats.NumGC

	mu    sync.Mutex
	ended bool
	wall  time.Duration
	alloc uint64
	mall  uint64
	gcs   uint32
	attrs map[string]any
}

// NewTrace starts a trace whose root span carries the run name. End the
// root (or just write the trace — live spans serialize with their current
// elapsed time) before serializing.
func NewTrace(name string) *Trace {
	tr := &Trace{start: time.Now()}
	tr.root = tr.newSpan(name, 0)
	return tr
}

// Root returns the run-level span; attach run attributes (seed, scale,
// host metadata) to it and create phase spans as its children.
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

func (tr *Trace) newSpan(name string, parent int64) *Span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.mu.Lock()
	tr.next++
	sp := &Span{
		tr:         tr,
		id:         tr.next,
		parent:     parent,
		name:       name,
		start:      time.Now(),
		startAlloc: ms.TotalAlloc,
		startMall:  ms.Mallocs,
		startGC:    ms.NumGC,
	}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

// Child opens a nested span. On a nil receiver it returns nil, so call
// sites need no tracing-enabled branch.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.newSpan(name, sp.id)
}

// SetAttr attaches an attribute to the span. Values must be JSON-encodable.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.attrs == nil {
		sp.attrs = make(map[string]any, 4)
	}
	sp.attrs[key] = value
	sp.mu.Unlock()
}

// End closes the span, recording wall time and memory deltas. Ending twice
// is a no-op; ending a nil span is a no-op.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sp.mu.Lock()
	if !sp.ended {
		sp.ended = true
		sp.wall = time.Since(sp.start)
		sp.alloc = ms.TotalAlloc - sp.startAlloc
		sp.mall = ms.Mallocs - sp.startMall
		sp.gcs = ms.NumGC - sp.startGC
	}
	sp.mu.Unlock()
}

// SpanRecord is the JSONL wire form of one span. StartUS is relative to
// the trace start, so traces carry no absolute clock.
type SpanRecord struct {
	ID         int64          `json:"id"`
	Parent     int64          `json:"parent"` // 0 = root
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"`
	WallUS     int64          `json:"wall_us"`
	AllocBytes uint64         `json:"alloc_bytes"`
	Mallocs    uint64         `json:"mallocs"`
	GCs        uint32         `json:"gcs"`
	Live       bool           `json:"live,omitempty"` // span had not ended when serialized
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// record snapshots the span (live spans report elapsed-so-far). The
// attributes are copied under the span lock, so a SetAttr on a live span
// cannot race the encoding of its record.
func (sp *Span) record(traceStart time.Time) SpanRecord {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	rec := SpanRecord{
		ID:      sp.id,
		Parent:  sp.parent,
		Name:    sp.name,
		StartUS: sp.start.Sub(traceStart).Microseconds(),
		Attrs:   maps.Clone(sp.attrs),
	}
	if sp.ended {
		rec.WallUS = sp.wall.Microseconds()
		rec.AllocBytes = sp.alloc
		rec.Mallocs = sp.mall
		rec.GCs = sp.gcs
	} else {
		rec.WallUS = time.Since(sp.start).Microseconds()
		rec.Live = true
	}
	return rec
}

// records snapshots every span, parents before children.
func (tr *Trace) records() []SpanRecord {
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	start := tr.start
	tr.mu.Unlock()
	recs := make([]SpanRecord, len(spans))
	for i, sp := range spans {
		recs[i] = sp.record(start)
	}
	return recs
}

// WriteJSONL serializes the trace, one span per line, parents before
// children.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	if tr == nil {
		return nil
	}
	return writeRecords(w, tr.records())
}

// writeRecords writes span records as JSONL, one per line.
func writeRecords(w io.Writer, recs []SpanRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace back into records (the round-trip half of
// WriteJSONL). It rejects empty traces, malformed lines, repeated span
// ids, and spans whose parent is not defined on an earlier line.
func ReadTrace(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []SpanRecord
	seen := map[int64]bool{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if rec.ID == 0 {
			return nil, fmt.Errorf("obs: trace line %d: span id 0", line)
		}
		if seen[rec.ID] {
			return nil, fmt.Errorf("obs: trace line %d: repeated span id %d", line, rec.ID)
		}
		if rec.Parent != 0 && !seen[rec.Parent] {
			return nil, fmt.Errorf("obs: trace line %d: parent %d not yet defined", line, rec.Parent)
		}
		seen[rec.ID] = true
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: empty trace")
	}
	return out, nil
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
