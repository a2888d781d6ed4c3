package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNewRunIDShape pins the format (16 lowercase hex chars) and spot-
// checks uniqueness across a batch of IDs.
func TestNewRunIDShape(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		id := NewRunID()
		if !re.MatchString(id) {
			t.Fatalf("run ID %q does not match %s", id, re)
		}
		if seen[id] {
			t.Fatalf("duplicate run ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestRunLogRoundTrip writes a log through the hooks adapter and reads it
// back through the strict validator: framing entries, per-line run IDs,
// gapless seq numbers, and payload fidelity.
func TestRunLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	id := NewRunID()
	l := NewRunLog(&buf, id)
	h := EventHooks(l.Add)
	h.TrainEpoch(TrainEpoch{Epoch: 1, Epochs: 2, Loss: 0.5, Wall: time.Second})
	h.StreamPass(StreamPass{Pass: "A", Table: "t", Shard: -1, RecordsIn: 10, RecordsOut: 4, Runs: 2})
	h.EvalQuery(EvalQuery{Card: 9, Truth: 10, QError: 10.0 / 9, Table: "t", Preds: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(entries))
	for i, e := range entries {
		kinds[i] = e.Kind
		if e.RunID != id {
			t.Fatalf("entry %d run_id %q, want %q", i, e.RunID, id)
		}
		if e.Time.IsZero() {
			t.Fatalf("entry %d has no timestamp", i)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d seq %d, want %d", i, e.Seq, i+1)
		}
	}
	want := []string{"run_start", "train_epoch", "stream_pass", "eval_query", "run_end"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("kinds %v, want %v", kinds, want)
	}
	var p StreamPass
	if err := json.Unmarshal(entries[2].Data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Pass != "A" || p.Table != "t" || p.RecordsIn != 10 || p.RecordsOut != 4 || p.Runs != 2 {
		t.Fatalf("stream_pass payload %+v", p)
	}
	var meta Meta
	if err := json.Unmarshal(entries[0].Data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.GoVersion == "" {
		t.Fatal("run_start frame carries no build metadata")
	}
}

// runLogLine renders one run-log entry with no payload.
func runLogLine(seq int, id, kind string) string {
	return fmt.Sprintf(`{"seq":%d,"time":"2026-01-02T03:04:05Z","run_id":%q,"kind":%q}`, seq, id, kind) + "\n"
}

// runLogRejects are run logs the validator must refuse; FuzzReadRunLog
// seeds its corpus from them.
var runLogRejects = map[string]string{
	"empty":              "",
	"blank lines only":   "\n\n",
	"not run_start":      runLogLine(1, "aa", "train_epoch") + runLogLine(2, "aa", "run_end"),
	"mixed run ids":      runLogLine(1, "aa", "run_start") + runLogLine(2, "bb", "train_epoch") + runLogLine(3, "aa", "run_end"),
	"missing kind":       `{"seq":1,"time":"2026-01-02T03:04:05Z","run_id":"aa"}` + "\n",
	"missing run_id":     `{"seq":1,"time":"2026-01-02T03:04:05Z","kind":"run_start"}` + "\n",
	"unknown field":      `{"seq":1,"time":"2026-01-02T03:04:05Z","run_id":"aa","kind":"run_start","extra":1}` + "\n",
	"not json":           "run_start aa\n",
	"second line broken": runLogLine(1, "aa", "run_start") + "{\n",
	"no run_end":         runLogLine(1, "aa", "run_start") + runLogLine(2, "aa", "gen_phase"),
	"skipped seq":        runLogLine(1, "aa", "run_start") + runLogLine(3, "aa", "gen_phase") + runLogLine(4, "aa", "run_end"),
	"duplicated seq":     runLogLine(1, "aa", "run_start") + runLogLine(2, "aa", "gen_phase") + runLogLine(2, "aa", "gen_phase") + runLogLine(3, "aa", "run_end"),
	"entry after end":    runLogLine(1, "aa", "run_start") + runLogLine(2, "aa", "run_end") + runLogLine(3, "aa", "gen_phase"),
	"second run_start":   runLogLine(1, "aa", "run_start") + runLogLine(2, "aa", "run_start") + runLogLine(3, "aa", "run_end"),
	"trailing data":      runLogLine(1, "aa", "run_start") + strings.TrimSpace(runLogLine(2, "aa", "run_end")) + " {}\n",
}

// runLogGood is a valid log: framed, gapless, one run ID (blank lines
// between entries are tolerated).
var runLogGood = runLogLine(1, "aa", "run_start") + "\n" + runLogLine(2, "aa", "gen_phase") + runLogLine(3, "aa", "run_end")

// TestReadRunLogRejects covers the validator's failure modes: logs that
// don't start with run_start, don't end with run_end (a killed run), lose
// or repeat a seq, mix run IDs, smuggle unknown fields, miss required
// ones, or are empty.
func TestReadRunLogRejects(t *testing.T) {
	for name, text := range runLogRejects {
		if _, err := ReadRunLog(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
	entries, err := ReadRunLog(strings.NewReader(runLogGood))
	if err != nil {
		t.Fatalf("valid log rejected: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
}

// TestRunLogNilSafe exercises the nil-log contract: every method is a
// no-op and Close reports success.
func TestRunLogNilSafe(t *testing.T) {
	var l *RunLog
	l.Add("gen_phase", GenPhase{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	EventHooks(l.Add).GenPhase(GenPhase{Phase: "sample"})
}

// TestRunLogPayloadError pins the sticky marshal error: a payload JSON
// cannot encode (a NaN loss) surfaces from Close instead of vanishing.
func TestRunLogPayloadError(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf, "aa")
	l.Add("train_epoch", TrainEpoch{Loss: math.NaN()})
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "train_epoch") {
		t.Fatalf("Close = %v, want the train_epoch payload error", err)
	}
}

// TestEventSinksConcurrent feeds the run log from several goroutines: it
// must still read back gapless, with every event (seq order is line
// order).
func TestEventSinksConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf, "aa")
	h := EventHooks(l.Add)
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.TrainStep(TrainStep{Step: i})
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != workers*each+2 {
		t.Fatalf("run log %d entries, want %d events plus the two frames", len(entries), workers*each)
	}
}

// TestStampRunInfo checks the identity family end to end: stamped into a
// registry, rendered to Prometheus text (including label-value escapes),
// and recovered from the parsed families.
func TestStampRunInfo(t *testing.T) {
	r := NewRegistry()
	id := NewRunID()
	StampRunInfo(r, id, BuildMeta())

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), RunInfoMetric+`{run_id="`+id+`"`) {
		t.Fatalf("exposition missing the run-info family:\n%s", buf.String())
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := RunIDFromFamilies(fams); got != id {
		t.Fatalf("RunIDFromFamilies = %q, want %q", got, id)
	}
	if RunIDFromFamilies(nil) != "" {
		t.Fatal("RunIDFromFamilies(nil) nonempty")
	}

	// Escaped label values must survive the exposition round trip too.
	r2 := NewRegistry()
	weird := "id\"with\\escapes\nnewline"
	StampRunInfo(r2, weird, Meta{})
	buf.Reset()
	if err := WritePrometheus(&buf, r2); err != nil {
		t.Fatal(err)
	}
	if fams, err = ParsePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := RunIDFromFamilies(fams); got != weird {
		t.Fatalf("escaped RunIDFromFamilies = %q, want %q", got, weird)
	}

	// Nil-registry stamping must not panic (detached-vector contract).
	StampRunInfo(nil, id, Meta{})
}
