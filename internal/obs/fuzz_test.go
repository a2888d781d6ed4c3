package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadRunLog checks the run-log decoder errors or returns, never
// panics, and that an accepted log re-encodes (one entry per line) to a
// log that reads back to equal entries.
func FuzzReadRunLog(f *testing.F) {
	for _, text := range runLogRejects {
		f.Add(text)
	}
	f.Add(runLogGood)
	var buf bytes.Buffer
	l := NewRunLog(&buf, "aa")
	h := EventHooks(l.Add)
	h.EvalQuery(EvalQuery{Card: 9, Truth: 10, QError: 10.0 / 9, Table: "t", Preds: 2})
	h.StreamPass(StreamPass{Pass: "A", Table: "t", RecordsIn: 10, RecordsOut: 4})
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, text string) {
		entries, err := ReadRunLog(strings.NewReader(text))
		if err != nil {
			return
		}
		first := encodeRunLog(t, entries)
		again, err := ReadRunLog(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded log rejected: %v\n%s", err, first)
		}
		if second := encodeRunLog(t, again); !bytes.Equal(first, second) {
			t.Fatalf("entries changed across a round trip:\n%s\n%s", first, second)
		}
	})
}

// encodeRunLog renders entries the way RunLog writes them.
func encodeRunLog(t *testing.T, entries []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("accepted entry %+v does not re-encode: %v", e, err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

// FuzzParsePrometheus checks the exposition parser errors or returns,
// never panics, and only accepts valid family and sample names.
func FuzzParsePrometheus(f *testing.F) {
	for _, text := range promRejects {
		f.Add(text)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, buildPromRegistry()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, fam := range fams {
			for _, s := range fam.Samples {
				if !validName(s.Name, true) {
					t.Fatalf("accepted sample name %q in family %q", s.Name, fam.Name)
				}
			}
		}
	})
}

// FuzzReadTrace checks the trace reader errors or returns, never panics,
// and that an accepted trace re-marshals, one record per line, to records
// that read back equal; and that every analysis samreport runs on a trace
// accepts it without panicking.
func FuzzReadTrace(f *testing.F) {
	f.Add(traceTwoSpans)
	f.Add(traceRepeatedID)
	seed, err := ReadTrace(strings.NewReader(traceTwoSpans))
	if err != nil {
		f.Fatal(err)
	}
	base := AnalyzeTrace(seed)

	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ReadTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for i := range recs {
			line, err := json.Marshal(recs[i])
			if err != nil {
				t.Fatalf("accepted record %+v does not re-marshal: %v", recs[i], err)
			}
			buf.Write(append(line, '\n'))
			// omitempty drops an empty attrs object, which reads back nil.
			if len(recs[i].Attrs) == 0 {
				recs[i].Attrs = nil
			}
		}
		again, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-marshaled trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("records changed across a round trip:\n%+v\n%+v", recs, again)
		}

		stats := AnalyzeTrace(recs)
		WriteTraceTree(io.Discard, stats)
		WriteTopSpans(io.Discard, stats, 5)
		WriteTraceDiff(io.Discard, DiffTraces(base, stats))
		WriteTraceDiff(io.Discard, DiffTraces(stats, stats))
	})
}
