package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sam/internal/experiments"
	"sam/internal/obs"
)

// writeTrace produces a small JSONL trace whose root carries runID.
func writeTrace(t *testing.T, dir, name, runID string) string {
	t.Helper()
	tr := obs.NewTrace("test-run")
	if runID != "" {
		tr.Root().SetAttr("run_id", runID)
	}
	sample := tr.Root().Child("sample")
	sh := sample.Child("shard")
	sh.End()
	sample.End()
	merge := tr.Root().Child("merge")
	merge.End()
	tr.Root().End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRunLog produces a JSONL run log with stream_pass and eval_query
// entries for runID.
func writeRunLog(t *testing.T, dir, runID string) string {
	t.Helper()
	path := filepath.Join(dir, "run.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l := obs.NewRunLog(f, runID)
	h := obs.EventHooks(l.Add)
	h.StreamPass(obs.StreamPass{Pass: "shard", Table: "", Shard: 0, RecordsOut: 100, Wall: time.Second})
	h.StreamPass(obs.StreamPass{Pass: "A", Table: "t", RecordsIn: 100, RecordsOut: 40, Runs: 2, BytesWritten: 4096})
	h.StreamPass(obs.StreamPass{Pass: "B", Table: "t", RecordsIn: 40, RecordsOut: 500, BytesRead: 4096})
	h.EvalQuery(obs.EvalQuery{Card: 10, Truth: 20, QError: 2, Table: "t", Preds: 1})
	h.EvalQuery(obs.EvalQuery{Card: 30, Truth: 10, QError: 3, Table: "t", Preds: 4})
	h.EvalQuery(obs.EvalQuery{Card: 5, Truth: 5, QError: 1, Table: "u", Preds: 0})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeMetrics renders a stamped registry as Prometheus text.
func writeMetrics(t *testing.T, dir, name, runID string) string {
	t.Helper()
	r := obs.NewRegistry()
	obs.StampRunInfo(r, runID, obs.BuildMeta())
	r.Counter("gen_rows_total").Add(100)
	h := r.Histogram("eval_qerror", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeScale(t *testing.T, dir, runID string) string {
	t.Helper()
	rep := experiments.ScaleBenchReport{
		Description:   "synthetic",
		RunID:         runID,
		Rows:          1000,
		Shards:        2,
		Workers:       2,
		Batch:         64,
		Partitions:    4,
		RowsPerSec:    5000,
		SampleWallMs:  120,
		MergeWallMs:   80,
		PassAWallMs:   30,
		PassBWallMs:   40,
		TotalWallMs:   200,
		PeakHeapBytes: 1 << 20,
		ShardBytes:    1 << 16,
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_scale.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBuildJoinsMatchingArtifacts fuses a trace, run log, Prometheus
// metrics file, and scale report all stamped with one run ID and checks the
// join key, sections, and both renderers.
func TestBuildJoinsMatchingArtifacts(t *testing.T) {
	dir := t.TempDir()
	id := obs.NewRunID()
	rep, err := Build(Inputs{
		TracePath:   writeTrace(t, dir, "run.jsonl", id),
		RunLogPath:  writeRunLog(t, dir, id),
		MetricsPath: writeMetrics(t, dir, "metrics.prom", id),
		ScalePath:   writeScale(t, dir, id),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID != id {
		t.Fatalf("joined run ID %q, want %q", rep.RunID, id)
	}
	if rep.Warning != "" {
		t.Fatalf("unexpected warning %q", rep.Warning)
	}
	titles := make([]string, len(rep.Sections))
	for i, s := range rep.Sections {
		titles[i] = s.Title
	}
	joined := strings.Join(titles, ",")
	for _, want := range []string{"Inputs", "Phase trace", "Q-Error", "Streaming passes", "Scale benchmark", "Metrics"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("sections %v missing %q", titles, want)
		}
	}

	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# SAM run report", id, "| pass |", "sample", "rows/sec end-to-end"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

// TestBuildRunIDMismatch pins the join gate: differing IDs are an error
// naming both claimants, and -allow-mismatch downgrades it to a warning.
func TestBuildRunIDMismatch(t *testing.T) {
	dir := t.TempDir()
	in := Inputs{
		TracePath:  writeTrace(t, dir, "run.jsonl", "aaaa000000000000"),
		RunLogPath: writeRunLog(t, dir, "bbbb000000000000"),
	}
	_, err := Build(in)
	if err == nil {
		t.Fatal("mismatched run IDs accepted")
	}
	for _, want := range []string{"aaaa000000000000", "bbbb000000000000", "-allow-mismatch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q missing %q", err, want)
		}
	}

	in.AllowMismatch = true
	rep, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warning == "" {
		t.Fatal("allow-mismatch produced no warning")
	}
	if rep.RunID != "aaaa000000000000" {
		t.Fatalf("allow-mismatch run ID %q", rep.RunID)
	}
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "**Warning:**") {
		t.Fatal("warning not rendered in markdown")
	}
}

// TestBuildBaselineExemptFromJoin diffs against a baseline trace from a
// different run: legal by design, and the diff section must appear.
func TestBuildBaselineExemptFromJoin(t *testing.T) {
	dir := t.TempDir()
	id := obs.NewRunID()
	rep, err := Build(Inputs{
		TracePath:    writeTrace(t, dir, "run.jsonl", id),
		BaselinePath: writeTrace(t, dir, "base.jsonl", obs.NewRunID()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID != id {
		t.Fatalf("run ID %q, want %q", rep.RunID, id)
	}
	found := false
	for _, s := range rep.Sections {
		if s.Title == "Trace diff vs baseline" {
			found = true
		}
	}
	if !found {
		t.Fatal("no diff section with a baseline input")
	}
}

// TestBuildPrometheusMetrics exercises the text-scrape input path: run ID
// recovery via the parsed families and the qerror fallback rows.
func TestBuildPrometheusMetrics(t *testing.T) {
	dir := t.TempDir()
	id := obs.NewRunID()
	rep, err := Build(Inputs{MetricsPath: writeMetrics(t, dir, "metrics.prom", id)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID != id {
		t.Fatalf("run ID from scrape %q, want %q", rep.RunID, id)
	}
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "eval_qerror") {
		t.Fatalf("scrape-driven report missing the qerror fallback:\n%s", md.String())
	}
}

// TestBuildInputValidation covers the fail-fast paths.
func TestBuildInputValidation(t *testing.T) {
	if _, err := Build(Inputs{}); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, err := Build(Inputs{BaselinePath: "x.jsonl"}); err == nil {
		t.Fatal("baseline without trace accepted")
	}
	if _, err := Build(Inputs{TracePath: "/definitely/not/there.jsonl"}); err == nil {
		t.Fatal("missing trace file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Inputs{RunLogPath: bad}); err == nil {
		t.Fatal("malformed run log accepted")
	}
	// A JSON registry snapshot is not a metrics input: Prometheus text is.
	snap := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(snap, []byte(`{"counters":{"a":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Inputs{MetricsPath: snap}); err == nil {
		t.Fatal("JSON snapshot accepted as metrics input")
	}
}

// TestBuildRejectsUndecodablePayload pins that a run-log entry whose
// payload does not decode fails the report, naming its line and kind,
// instead of silently shrinking the Q-Error or streaming tables.
func TestBuildRejectsUndecodablePayload(t *testing.T) {
	dir := t.TempDir()
	for kind, data := range map[string]string{
		"eval_query":  `{"qerror":"high"}`,
		"stream_pass": `[1,2]`,
	} {
		path := filepath.Join(dir, kind+".log")
		log := `{"seq":1,"time":"2026-01-02T03:04:05Z","run_id":"aa","kind":"run_start"}
{"seq":2,"time":"2026-01-02T03:04:05Z","run_id":"aa","kind":"eval_query","data":{"qerror":2,"table":"t"}}
{"seq":3,"time":"2026-01-02T03:04:05Z","run_id":"aa","kind":"` + kind + `","data":` + data + `}
{"seq":4,"time":"2026-01-02T03:04:05Z","run_id":"aa","kind":"run_end"}
`
		if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Build(Inputs{RunLogPath: path})
		if err == nil {
			t.Fatalf("%s: undecodable payload accepted", kind)
		}
		for _, want := range []string{"line 3", kind} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", kind, err, want)
			}
		}
	}
}

// TestMarkdownTableEscaping keeps pipe characters in cell data from
// breaking the table grammar.
func TestMarkdownTableEscaping(t *testing.T) {
	rep := &Report{
		Title: "t",
		Sections: []Section{{
			Title: "s",
			Table: &Table{Header: []string{"k"}, Rows: [][]string{{"a|b"}}},
		}},
	}
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), `a\|b`) {
		t.Fatalf("pipe not escaped:\n%s", md.String())
	}
}

// TestQErrorRowQuantiles pins the Q-Error row to the interpolated
// quantiles of metrics.Summarize. On even-sized inputs nearest-rank
// picking differs: {1,2,3,4} has median 2.5, not 3.
func TestQErrorRowQuantiles(t *testing.T) {
	cases := []struct {
		qerrors []float64
		want    []string // queries, mean, median, p90, max
	}{
		{[]float64{4, 1, 3, 2}, []string{"4", "2.5", "2.5", "3.7", "4"}},
		{[]float64{10, 1}, []string{"2", "5.5", "5.5", "9.1", "10"}},
		{[]float64{1, 2, 3, 4, 5, 6}, []string{"6", "3.5", "3.5", "5.5", "6"}},
		{[]float64{7}, []string{"1", "7", "7", "7", "7"}},
	}
	for _, tc := range cases {
		qs := make([]obs.EvalQuery, len(tc.qerrors))
		for i, q := range tc.qerrors {
			qs[i] = obs.EvalQuery{QError: q}
		}
		got := qerrorRow("all", qs)
		want := append([]string{"all"}, tc.want...)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("qerrorRow(%v) = %v, want %v", tc.qerrors, got, want)
		}
	}
}
