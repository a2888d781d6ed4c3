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
// run_start/run_end frame — stamped with its sequence number in the run
// log, its arrival time, and the owning run's ID. It is one line of the
// JSONL run log (-runlog).
type Event struct {
	Seq   uint64          `json:"seq"`
	Time  time.Time       `json:"time"`
	RunID string          `json:"run_id"`
	Kind  string          `json:"kind"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// EventHooks returns hooks that hand every pipeline event to add under
// its kind tag, such as a RunLog's Add. This is debug and offline
// tooling: payloads are boxed and marshaled per event, so attach
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

// RunLog appends events to a JSONL stream, one self-contained entry per
// line (every line repeats the run ID, so a log survives being cat'ed
// together with others and still joins correctly). The stream is framed
// by run_start and run_end; ReadRunLog rejects a log without its run_end,
// so a killed run's log never reads as valid. All methods are safe for
// concurrent use and no-ops on a nil log; write and marshal errors are
// sticky and surface from Close.
type RunLog struct {
	mu    sync.Mutex
	runID string
	seq   uint64 // entries written so far
	bw    *bufio.Writer
	err   error
}

// NewRunLog starts a run log on w, writing the "run_start" framing entry
// with the build metadata as its payload.
func NewRunLog(w io.Writer, runID string) *RunLog {
	l := &RunLog{runID: runID, bw: bufio.NewWriter(w)}
	l.Add("run_start", BuildMeta())
	return l
}

// Add appends one entry stamped with the next seq, the time and the run
// ID. The payload is marshaled before the lock is taken, since data may
// carry its own MarshalJSON; seq is assigned under it, so seq order is
// line order.
func (l *RunLog) Add(kind string, data any) {
	if l == nil {
		return
	}
	var raw json.RawMessage
	var err error
	if data != nil {
		if raw, err = json.Marshal(data); err != nil {
			err = fmt.Errorf("obs: %s payload: %w", kind, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err == nil {
		l.seq++
		var line []byte
		ev := Event{Seq: l.seq, Time: time.Now(), RunID: l.runID, Kind: kind, Data: raw}
		if line, err = json.Marshal(ev); err == nil {
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
