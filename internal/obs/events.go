package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one pipeline signal — a train epoch/step, a generation
// phase/progress, a stream pass, an evaluated query, or a run log's
// run_start/run_end frame — stamped with its sequence number in its sink,
// its arrival time, and the owning run's ID. The event ring
// (/debug/events) and the JSONL run log (-runlog) hold this same record.
type Event struct {
	Seq   uint64          `json:"seq"`
	Time  time.Time       `json:"time"`
	RunID string          `json:"run_id"`
	Kind  string          `json:"kind"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// marshalPayload is the first half of the step both sinks share. It runs
// before the sink takes its lock, since data may carry its own
// MarshalJSON.
func marshalPayload(kind string, data any) (json.RawMessage, error) {
	if data == nil {
		return nil, nil
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return nil, fmt.Errorf("obs: %s payload: %w", kind, err)
	}
	return raw, nil
}

// eventStamp is the second half: it stamps a marshaled payload with the
// sink's next sequence number, the time, and the run ID. The owning sink
// serializes calls, so seq order is arrival order.
type eventStamp struct {
	runID string
	seq   uint64
}

func (s *eventStamp) next(kind string, raw json.RawMessage) Event {
	s.seq++
	return Event{Seq: s.seq, Time: time.Now(), RunID: s.runID, Kind: kind, Data: raw}
}

// EventHooks returns hooks that hand every pipeline event to add under
// its kind tag; pass an EventLog's or a RunLog's Add. This is debug and
// offline tooling: payloads are boxed and marshaled per event, so attach
// it only where the allocation-free contract doesn't apply.
func EventHooks(add func(kind string, data any)) *Hooks {
	return &Hooks{
		OnTrainEpoch:  func(e TrainEpoch) { add("train_epoch", e) },
		OnTrainStep:   func(s TrainStep) { add("train_step", s) },
		OnGenPhase:    func(p GenPhase) { add("gen_phase", p) },
		OnGenProgress: func(p GenProgress) { add("gen_progress", p) },
		OnStreamPass:  func(p StreamPass) { add("stream_pass", p) },
		OnEvalQuery:   func(q EvalQuery) { add("eval_query", q) },
	}
}

// EventLog is a fixed-capacity ring buffer of recent events, served by
// the debug server at /debug/events so a long run's last moments are
// inspectable without a trace file. Appends overwrite the oldest entry;
// all methods are safe for concurrent use and no-ops on a nil log.
type EventLog struct {
	mu    sync.Mutex
	stamp eventStamp
	buf   []Event
	next  int // ring position of the next write
}

// eventRingSize is the ring capacity the CLIs use.
const eventRingSize = 256

// NewEventLog returns a ring holding the last capacity events (minimum 1),
// each stamped with runID.
func NewEventLog(capacity int, runID string) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{stamp: eventStamp{runID: runID}, buf: make([]Event, 0, capacity)}
}

// Add appends one event, evicting the oldest when full. The ring is a
// lossy live view: a payload that fails to marshal is not recorded (the
// run log reports the same failure from Close).
func (l *EventLog) Add(kind string, data any) {
	if l == nil {
		return
	}
	raw, err := marshalPayload(kind, data)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := l.stamp.next(kind, raw)
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.next] = ev
		l.next = (l.next + 1) % cap(l.buf)
	}
}

// Events returns the buffered events, oldest first. A nil log returns nil.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Total returns the number of events ever appended (≥ len(Events())).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stamp.seq
}

// MarshalJSON renders the ring as {"run_id": …, "total": N, "events":
// [...]} so the /debug/events endpoint shows the owning run, the retained
// window, and how much scrolled past it.
func (l *EventLog) MarshalJSON() ([]byte, error) {
	var runID string
	if l != nil {
		runID = l.stamp.runID
	}
	return json.Marshal(struct {
		RunID  string  `json:"run_id,omitempty"`
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}{RunID: runID, Total: l.Total(), Events: l.Events()})
}

// RunLog appends events to a JSONL stream, one self-contained entry per
// line (every line repeats the run ID, so a log survives being cat'ed
// together with others and still joins correctly). The stream is framed
// by run_start and run_end; ReadRunLog rejects a log without its run_end,
// so a killed run's log never reads as valid. All methods are safe for
// concurrent use and no-ops on a nil log; write and marshal errors are
// sticky and surface from Close.
type RunLog struct {
	mu    sync.Mutex
	stamp eventStamp
	bw    *bufio.Writer
	err   error
}

// NewRunLog starts a run log on w, writing the "run_start" framing entry
// with the build metadata as its payload.
func NewRunLog(w io.Writer, runID string) *RunLog {
	l := &RunLog{stamp: eventStamp{runID: runID}, bw: bufio.NewWriter(w)}
	l.Add("run_start", BuildMeta())
	return l
}

// Add appends one entry.
func (l *RunLog) Add(kind string, data any) {
	if l == nil {
		return
	}
	raw, err := marshalPayload(kind, data)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err == nil {
		var line []byte
		if line, err = json.Marshal(l.stamp.next(kind, raw)); err == nil {
			_, err = l.bw.Write(append(line, '\n'))
		}
	}
	l.err = err
}

// Close writes the "run_end" framing entry, flushes, and returns the
// first error the log hit. Nil logs close cleanly.
func (l *RunLog) Close() error {
	if l == nil {
		return nil
	}
	l.Add("run_end", nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// ReadRunLog parses and validates a JSONL run log: every line must be one
// well-formed entry carrying a kind and the same non-empty run ID, seq
// must run 1, 2, … without gaps, and the log must open with run_start and
// end with run_end. A log cut at any line, or missing lines in the
// middle, is an error. It returns the entries in file order.
func ReadRunLog(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var out []Event
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("obs: runlog line %d: %w", lineNo, err)
		}
		switch {
		case dec.InputOffset() != int64(len(line)):
			return nil, fmt.Errorf("obs: runlog line %d: trailing data after the entry", lineNo)
		case e.Kind == "":
			return nil, fmt.Errorf("obs: runlog line %d: missing kind", lineNo)
		case e.RunID == "":
			return nil, fmt.Errorf("obs: runlog line %d: missing run_id", lineNo)
		case e.Seq != uint64(len(out))+1:
			return nil, fmt.Errorf("obs: runlog line %d: seq %d, want %d", lineNo, e.Seq, len(out)+1)
		case (e.Kind == "run_start") != (len(out) == 0):
			return nil, fmt.Errorf("obs: runlog line %d: %q entry, run_start must open the log and only there", lineNo, e.Kind)
		case len(out) > 0 && out[len(out)-1].Kind == "run_end":
			return nil, fmt.Errorf("obs: runlog line %d: entry after run_end", lineNo)
		case len(out) > 0 && e.RunID != out[0].RunID:
			return nil, fmt.Errorf("obs: runlog line %d: run_id %q does not match %q", lineNo, e.RunID, out[0].RunID)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: empty run log")
	}
	if last := out[len(out)-1]; last.Kind != "run_end" {
		return nil, fmt.Errorf("obs: runlog ends with %q (seq %d), want run_end: the run did not finish", last.Kind, last.Seq)
	}
	return out, nil
}
