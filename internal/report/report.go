// Package report fuses the artifacts one SAM run leaves behind — a phase
// trace, a Prometheus metrics file or scrape, a structured run log,
// and the benchmark reports — into a single Markdown document.
// Inputs are joined by the run ID each artifact was stamped with
// (obs.NewRunID; see cmd/samgen and cmd/sambench), so a report cannot
// silently mix artifacts from different runs.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"sam/internal/experiments"
	"sam/internal/metrics"
	"sam/internal/obs"
)

// Inputs names the artifact files to fuse. Every path is optional, but at
// least one must be set.
type Inputs struct {
	TracePath    string // JSONL span trace (samgen/sambench -trace)
	BaselinePath string // second trace to diff the first against
	MetricsPath  string // Prometheus text (-metrics-out or a /metrics scrape)
	RunLogPath   string // JSONL run log (-runlog)
	ScalePath    string // BENCH_scale.json (sambench -scalebench)
	TensorPath   string // BENCH_tensor.json (sambench -tensorbench)
	// Top bounds the hot-span and diff listings (0 = 10).
	Top int
	// AllowMismatch downgrades a run-ID join failure to a warning in the
	// report instead of an error.
	AllowMismatch bool
}

// Source records where one section's data came from and which run it
// claims. Artifacts that carry no run ID (tensor benchmarks, baseline
// traces) report it empty.
type Source struct {
	Kind  string
	Path  string
	RunID string
}

// Table is one rendered table: a header row plus data rows, all strings.
type Table struct {
	Header []string
	Rows   [][]string
}

// Section is one report section: a title, prose paragraphs, an optional
// table, and an optional preformatted block (trace trees keep their
// fixed-width alignment).
type Section struct {
	Title string
	Text  []string
	Table *Table
	Pre   string
}

// Report is the fused run report; WriteMarkdown renders it.
type Report struct {
	Title    string
	RunID    string // the agreed join key ("" when no input carried one)
	Warning  string // non-fatal join diagnostics (AllowMismatch)
	Sources  []Source
	Sections []Section
}

// Build loads every named artifact, validates the run-ID join, and
// assembles the report sections.
func Build(in Inputs) (*Report, error) {
	if in.TracePath == "" && in.MetricsPath == "" && in.RunLogPath == "" &&
		in.ScalePath == "" && in.TensorPath == "" {
		return nil, fmt.Errorf("report: no inputs; name at least one artifact")
	}
	top := in.Top
	if top <= 0 {
		top = 10
	}
	r := &Report{Title: "SAM run report"}

	var traceStats, baseStats []obs.PathStat
	if in.TracePath != "" {
		recs, err := readTraceFile(in.TracePath)
		if err != nil {
			return nil, err
		}
		traceStats = obs.AnalyzeTrace(recs)
		r.Sources = append(r.Sources, Source{Kind: "trace", Path: in.TracePath, RunID: traceRunID(recs)})
	}
	if in.BaselinePath != "" {
		if in.TracePath == "" {
			return nil, fmt.Errorf("report: -baseline needs -trace to diff against")
		}
		recs, err := readTraceFile(in.BaselinePath)
		if err != nil {
			return nil, err
		}
		baseStats = obs.AnalyzeTrace(recs)
		// Baselines are a different run by design: listed, never joined.
		r.Sources = append(r.Sources, Source{Kind: "baseline", Path: in.BaselinePath})
	}

	var fams []obs.PromFamily
	if in.MetricsPath != "" {
		f, err := os.Open(in.MetricsPath)
		if err != nil {
			return nil, err
		}
		fams, err = obs.ParsePrometheus(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", in.MetricsPath, err)
		}
		r.Sources = append(r.Sources, Source{Kind: "metrics", Path: in.MetricsPath, RunID: obs.RunIDFromFamilies(fams)})
	}

	var qs []obs.EvalQuery
	var passes []obs.StreamPass
	if in.RunLogPath != "" {
		f, err := os.Open(in.RunLogPath)
		if err != nil {
			return nil, err
		}
		entries, err := obs.ReadRunLog(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", in.RunLogPath, err)
		}
		if qs, err = payloads[obs.EvalQuery](in.RunLogPath, entries, "eval_query"); err != nil {
			return nil, err
		}
		if passes, err = payloads[obs.StreamPass](in.RunLogPath, entries, "stream_pass"); err != nil {
			return nil, err
		}
		r.Sources = append(r.Sources, Source{Kind: "runlog", Path: in.RunLogPath, RunID: entries[0].RunID})
	}

	var scale *experiments.ScaleBenchReport
	if in.ScalePath != "" {
		if err := readJSON(in.ScalePath, &scale); err != nil {
			return nil, err
		}
		r.Sources = append(r.Sources, Source{Kind: "scale", Path: in.ScalePath, RunID: scale.RunID})
	}
	var tensor *experiments.TensorBenchReport
	if in.TensorPath != "" {
		if err := readJSON(in.TensorPath, &tensor); err != nil {
			return nil, err
		}
		r.Sources = append(r.Sources, Source{Kind: "tensor", Path: in.TensorPath})
	}

	if err := r.joinRunIDs(in.AllowMismatch); err != nil {
		return nil, err
	}

	r.Sections = append(r.Sections, sourcesSection(r))
	if traceStats != nil {
		r.Sections = append(r.Sections, traceSection(traceStats, top))
	}
	if baseStats != nil {
		r.Sections = append(r.Sections, diffSection(baseStats, traceStats, top))
	}
	if s := qerrorSection(qs, fams); s != nil {
		r.Sections = append(r.Sections, *s)
	}
	if s := streamSection(passes); s != nil {
		r.Sections = append(r.Sections, *s)
	}
	if scale != nil {
		r.Sections = append(r.Sections, scaleSection(scale))
	}
	if tensor != nil {
		r.Sections = append(r.Sections, tensorSection(tensor))
	}
	if fams != nil {
		r.Sections = append(r.Sections, familiesSection(fams))
	}
	return r, nil
}

// joinRunIDs enforces that every run-ID-carrying input claims the same
// run. Baselines and tensor reports are exempt (no RunID recorded).
func (r *Report) joinRunIDs(allowMismatch bool) error {
	ids := map[string][]string{} // id -> "kind(path)" claimants
	var order []string
	for _, s := range r.Sources {
		if s.RunID == "" {
			continue
		}
		if _, seen := ids[s.RunID]; !seen {
			order = append(order, s.RunID)
		}
		ids[s.RunID] = append(ids[s.RunID], fmt.Sprintf("%s(%s)", s.Kind, s.Path))
	}
	switch len(order) {
	case 0:
		return nil
	case 1:
		r.RunID = order[0]
		return nil
	}
	var parts []string
	for _, id := range order {
		parts = append(parts, fmt.Sprintf("%s from %s", id, strings.Join(ids[id], ", ")))
	}
	msg := "inputs disagree on the run ID: " + strings.Join(parts, "; ")
	if !allowMismatch {
		return fmt.Errorf("report: %s (re-run with matching artifacts or pass -allow-mismatch)", msg)
	}
	r.RunID = order[0]
	r.Warning = msg
	return nil
}

func readTraceFile(path string) ([]obs.SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return recs, nil
}

// traceRunID pulls the run_id attribute off the trace's root span.
func traceRunID(recs []obs.SpanRecord) string {
	for _, rec := range recs {
		if rec.Parent != 0 {
			continue
		}
		if id, ok := rec.Attrs["run_id"].(string); ok {
			return id
		}
	}
	return ""
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("report: %s: %w", path, err)
	}
	return nil
}

// payloads decodes the payload of every run-log entry of the given kind.
// A payload that does not decode is an error naming its line (the entry's
// seq: RunLog writes entry n on line n) and kind; skipping it would
// silently shrink the table it feeds.
func payloads[T any](path string, entries []obs.Event, kind string) ([]T, error) {
	var out []T
	for _, e := range entries {
		if e.Kind != kind {
			continue
		}
		var v T
		if err := json.Unmarshal(e.Data, &v); err != nil {
			return nil, fmt.Errorf("report: %s: line %d (%s entry): %w", path, e.Seq, kind, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func sourcesSection(r *Report) Section {
	t := &Table{Header: []string{"kind", "path", "run id"}}
	for _, s := range r.Sources {
		id := s.RunID
		if id == "" {
			id = "-"
		}
		t.Rows = append(t.Rows, []string{s.Kind, s.Path, id})
	}
	var text []string
	if r.RunID != "" {
		text = append(text, fmt.Sprintf("Run ID: `%s`", r.RunID))
	}
	if r.Warning != "" {
		text = append(text, "**Warning:** "+r.Warning)
	}
	return Section{Title: "Inputs", Text: text, Table: t}
}

func traceSection(stats []obs.PathStat, top int) Section {
	var sb strings.Builder
	obs.WriteTraceTree(&sb, stats)
	sb.WriteString("\ntop spans by self time:\n")
	obs.WriteTopSpans(&sb, stats, top)
	return Section{
		Title: "Phase trace",
		Text: []string{fmt.Sprintf("%d span paths; total and self wall time with allocation attribution "+
			"(self = total minus direct children).", len(stats))},
		Pre: sb.String(),
	}
}

func diffSection(base, cur []obs.PathStat, top int) Section {
	deltas := obs.DiffTraces(base, cur)
	if top > 0 && len(deltas) > top {
		deltas = deltas[:top]
	}
	var sb strings.Builder
	obs.WriteTraceDiff(&sb, deltas)
	return Section{
		Title: "Trace diff vs baseline",
		Text:  []string{"Per-span wall and allocation deltas against the baseline trace (a = baseline, b = this run), largest absolute wall change first."},
		Pre:   sb.String(),
	}
}

// qerrorSection summarizes evaluation fidelity. The run log's eval_query
// entries give exact per-query values (quantiles computed here); absent a
// run log, the metrics file's eval_qerror* histogram families stand in.
func qerrorSection(qs []obs.EvalQuery, fams []obs.PromFamily) *Section {
	if len(qs) > 0 {
		t := &Table{Header: []string{"group", "queries", "mean", "median", "p90", "max"}}
		t.Rows = append(t.Rows, qerrorRow("all", qs))
		for _, group := range groupKeys(qs, func(q obs.EvalQuery) string { return q.Table }) {
			t.Rows = append(t.Rows, qerrorRow("table "+group.key, group.qs))
		}
		for _, group := range groupKeys(qs, func(q obs.EvalQuery) string { return obs.PredsBucket(q.Preds) }) {
			t.Rows = append(t.Rows, qerrorRow(group.key+" preds", group.qs))
		}
		return &Section{
			Title: "Q-Error",
			Text:  []string{fmt.Sprintf("%d evaluated queries from the run log, grouped by relation and predicate count.", len(qs))},
			Table: t,
		}
	}
	// Fall back to the labeled histogram families.
	t := &Table{Header: []string{"family", "count", "mean", "p50", "p90", "p99", "max"}}
	for _, fam := range fams {
		if strings.HasPrefix(fam.Name, "eval_qerror") && fam.Type == "histogram" {
			t.Rows = append(t.Rows, famHistRows(fam)...)
		}
	}
	if len(t.Rows) == 0 {
		return nil
	}
	return &Section{
		Title: "Q-Error",
		Text:  []string{"Q-Error distribution from the metrics payload's eval_qerror families."},
		Table: t,
	}
}

type qGroup struct {
	key string
	qs  []obs.EvalQuery
}

func groupKeys(qs []obs.EvalQuery, key func(obs.EvalQuery) string) []qGroup {
	byKey := map[string][]obs.EvalQuery{}
	for _, q := range qs {
		k := key(q)
		if k == "" {
			continue
		}
		byKey[k] = append(byKey[k], q)
	}
	out := make([]qGroup, 0, len(byKey))
	for _, k := range sortedKeys(byKey) {
		out = append(out, qGroup{key: k, qs: byKey[k]})
	}
	return out
}

// qerrorRow summarizes one group of evaluated queries with
// metrics.Summarize, the interpolated quantiles every other Q-Error
// report uses.
func qerrorRow(label string, qs []obs.EvalQuery) []string {
	vals := make([]float64, len(qs))
	for i, q := range qs {
		vals[i] = q.QError
	}
	s := metrics.Summarize(vals)
	return []string{label, fmt.Sprint(len(qs)), fmtF(s.Mean), fmtF(s.Median), fmtF(s.P90), fmtF(s.Max)}
}

// famHistRows summarizes one parsed Prometheus histogram family as
// count/mean rows (quantiles are not recoverable from buckets exactly, so
// they are omitted in scrape-driven reports).
func famHistRows(fam obs.PromFamily) [][]string {
	type agg struct {
		sum   float64
		count float64
	}
	byLabels := map[string]*agg{}
	var order []string
	for _, s := range fam.Samples {
		var lbls []string
		for _, l := range s.Labels {
			if l.Name == "le" {
				continue
			}
			lbls = append(lbls, l.Name+"="+l.Value)
		}
		key := strings.Join(lbls, ",")
		a := byLabels[key]
		if a == nil {
			a = &agg{}
			byLabels[key] = a
			order = append(order, key)
		}
		switch {
		case strings.HasSuffix(s.Name, "_sum"):
			a.sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			a.count = s.Value
		}
	}
	var out [][]string
	for _, key := range order {
		a := byLabels[key]
		if a.count == 0 {
			continue
		}
		name := fam.Name
		if key != "" {
			name += "{" + key + "}"
		}
		out = append(out, []string{name, fmt.Sprint(int64(a.count)),
			fmtF(a.sum / a.count), "-", "-", "-", "-"})
	}
	return out
}

// streamSection totals the run log's stream_pass events per pass: record
// flow, spill traffic, runs, and wall time, plus shard-level backpressure.
func streamSection(passes []obs.StreamPass) *Section {
	type agg struct {
		events         int
		in, out        int64
		runs           int
		bytesW, bytesR int64
		wall, bp       time.Duration
	}
	byPass := map[string]*agg{}
	for _, p := range passes {
		a := byPass[p.Pass]
		if a == nil {
			a = &agg{}
			byPass[p.Pass] = a
		}
		a.events++
		a.in += p.RecordsIn
		a.out += p.RecordsOut
		a.runs += p.Runs
		a.bytesW += p.BytesWritten
		a.bytesR += p.BytesRead
		a.wall += p.Wall
		a.bp += p.BackpressureWait
	}
	if len(byPass) == 0 {
		return nil
	}
	t := &Table{Header: []string{"pass", "events", "records in", "records out", "runs", "spill written", "spill read", "wall", "backpressure"}}
	for _, pass := range []string{"shard", "A", "B"} {
		a := byPass[pass]
		if a == nil {
			continue
		}
		t.Rows = append(t.Rows, []string{pass, fmt.Sprint(a.events),
			fmt.Sprint(a.in), fmt.Sprint(a.out), fmt.Sprint(a.runs),
			fmtBytes(a.bytesW), fmtBytes(a.bytesR),
			fmtDur(a.wall), fmtDur(a.bp)})
	}
	return &Section{
		Title: "Streaming passes",
		Text: []string{"Per-pass totals from the run log's stream_pass events " +
			"(shard = sampling legs; A = spill partition pass, B = grouping plus key allocation and row emission, each summed across tables)."},
		Table: t,
	}
}

func scaleSection(rep *experiments.ScaleBenchReport) Section {
	t := &Table{Header: []string{"metric", "value"}}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("rows", fmt.Sprint(rep.Rows))
	add("shards × workers", fmt.Sprintf("%d × %d (batch %d, %d partitions)", rep.Shards, rep.Workers, rep.Batch, rep.Partitions))
	add("rows/sec end-to-end", fmt.Sprintf("%.0f", rep.RowsPerSec))
	add("rows/sec sampling", fmt.Sprintf("%.0f", rep.SampleRowsPerSec))
	add("sample wall", fmt.Sprintf("%dms", rep.SampleWallMs))
	add("merge wall", fmt.Sprintf("%dms (A %dms, B %dms)",
		rep.MergeWallMs, rep.PassAWallMs, rep.PassBWallMs))
	add("total wall", fmt.Sprintf("%dms", rep.TotalWallMs))
	add("peak heap", fmtBytes(rep.PeakHeapBytes))
	if rep.PeakRSSBytes > 0 {
		add("peak RSS", fmtBytes(rep.PeakRSSBytes))
	}
	add("shard bytes", fmtBytes(rep.ShardBytes))
	text := []string{rep.Description}
	if rep.Meta.GoVersion != "" {
		text = append(text, "Built with "+rep.Meta.String()+".")
	}
	return Section{Title: "Scale benchmark", Text: text, Table: t}
}

func tensorSection(rep *experiments.TensorBenchReport) Section {
	t := &Table{Header: []string{"benchmark", "ns/op", "speedup vs seed", "allocs/op", "B/op"}}
	for _, res := range rep.Results {
		t.Rows = append(t.Rows, []string{res.Name, fmt.Sprint(res.NsOp),
			fmt.Sprintf("%.2fx", res.Speedup), fmt.Sprint(res.AllocsOp), fmt.Sprint(res.BytesOp)})
	}
	return Section{Title: "Tensor benchmarks", Text: []string{rep.Description}, Table: t}
}

func familiesSection(fams []obs.PromFamily) Section {
	var sb strings.Builder
	for _, fam := range fams {
		fmt.Fprintf(&sb, "%s (%s, %d samples)\n", fam.Name, fam.Type, len(fam.Samples))
		if fam.Type == "histogram" {
			continue // bucket series are noise in a summary
		}
		for _, s := range fam.Samples {
			var lbls []string
			for _, l := range s.Labels {
				lbls = append(lbls, fmt.Sprintf("%s=%q", l.Name, l.Value))
			}
			name := s.Name
			if len(lbls) > 0 {
				name += "{" + strings.Join(lbls, ",") + "}"
			}
			fmt.Fprintf(&sb, "  %-56s %g\n", name, s.Value)
		}
	}
	return Section{
		Title: "Metrics",
		Text:  []string{"Parsed Prometheus scrape (histogram bucket series elided)."},
		Pre:   sb.String(),
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fmtF(v float64) string {
	return fmt.Sprintf("%.3g", v)
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
