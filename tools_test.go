package sam_test

import (
	"bufio"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sam/internal/obs"
	"sam/internal/relation"
)

// TestCLITools builds and drives the actual command binaries end to end:
// workloadgen produces artifacts, saminspect reads them, samgen trains,
// saves, reloads and writes CSVs. Guarded by -short because it compiles
// three binaries.
func TestCLITools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"workloadgen", "samgen", "saminspect"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	out := run("workloadgen", "-dataset", "census", "-rows", "1200", "-queries", "120",
		"-out", "wl.json", "-schema", "schema.json")
	if !strings.Contains(out, "labeled 120 queries") {
		t.Fatalf("workloadgen output: %s", out)
	}

	out = run("saminspect", "-workload", "wl.json", "-schema", "schema.json")
	for _, want := range []string{"== schema ==", "== workload ==", "queries: 120"} {
		if !strings.Contains(out, want) {
			t.Fatalf("saminspect output missing %q:\n%s", want, out)
		}
	}

	// The pairwise-view ablation: -no-gam writes every table of a join
	// schema, and each foreign key names a parent key.
	out = run("workloadgen", "-dataset", "imdb", "-rows", "60", "-queries", "40",
		"-out", "imdb.json", "-schema", "imdb_schema.json")
	pop := regexp.MustCompile(`full outer join size = (\d+)`).FindStringSubmatch(out)
	if pop == nil {
		t.Fatalf("workloadgen printed no full outer join size:\n%s", out)
	}
	run("samgen", "-workload", "imdb.json", "-schema", "imdb_schema.json", "-population", pop[1],
		"-outdir", "views", "-epochs", "1", "-hidden", "16", "-samples", "2000", "-no-gam")
	checkStreamedFKs(t, filepath.Join(dir, "imdb_schema.json"), filepath.Join(dir, "views"))

	out = run("samgen", "-workload", "wl.json", "-schema", "schema.json",
		"-outdir", "gen", "-epochs", "3", "-hidden", "16", "-samples", "1200",
		"-save", "model.json")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("samgen output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen", "census.csv")); err != nil {
		t.Fatalf("generated CSV missing: %v", err)
	}

	// Generation from the saved model, no retraining.
	out = run("samgen", "-load", "model.json", "-schema", "schema.json",
		"-outdir", "gen2", "-samples", "1200")
	if !strings.Contains(out, "loaded model") {
		t.Fatalf("samgen -load output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen2", "census.csv")); err != nil {
		t.Fatalf("regenerated CSV missing: %v", err)
	}

	out = run("saminspect", "-model", "model.json", "-marginals", "200")
	if !strings.Contains(out, "== model ==") || !strings.Contains(out, "MADE 2×16, ") {
		t.Fatalf("saminspect model output:\n%s", out)
	}
}

// checkStreamedFKs reads the CSVs samgen wrote to outDir into the schema
// specPath describes and fails unless every table is there and every
// foreign key names a key of its parent.
func checkStreamedFKs(t *testing.T, specPath, outDir string) {
	t.Helper()
	f, err := os.Open(specPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := relation.ReadSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	db, err := spec.EmptySchema()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range db.Tables {
		f, err := os.Open(filepath.Join(outDir, tab.Name+".csv"))
		if err != nil {
			t.Fatalf("samgen -no-gam wrote no CSV for %s: %v", tab.Name, err)
		}
		err = tab.ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s.csv: %v", tab.Name, err)
		}
	}
	for _, tab := range db.Tables {
		if tab.Parent == "" {
			continue
		}
		parent := db.Table(tab.Parent)
		pks := make(map[int64]bool, parent.NumRows())
		for i := 0; i < parent.NumRows(); i++ {
			pks[parent.PK(i)] = true
		}
		if tab.NumRows() == 0 {
			t.Fatalf("%s.csv holds no rows", tab.Name)
		}
		for i, fk := range tab.FK {
			if !pks[fk] {
				t.Fatalf("%s.csv row %d: foreign key %d names no %s key", tab.Name, i, fk, tab.Parent)
			}
		}
	}
}

// TestSambenchTraceSmoke is the CI telemetry gate: it runs the smallest
// real experiment with -runlog and fails unless the run log reads back
// valid and carries a well-formed span tree covering every pipeline phase
// — train, sample, merge, and eval — with positive wall time. A refactor
// that silently drops a phase span (or stops writing the span entries)
// fails here, not in production debugging.
func TestSambenchTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sambench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sambench").CombinedOutput(); err != nil {
		t.Fatalf("build sambench: %v\n%s", err, out)
	}
	runlogPath := filepath.Join(dir, "run.log")
	cmd := exec.Command(bin, "-scale", "smoke", "-exp", "tab1", "-runlog", runlogPath, "-progress")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sambench smoke: %v\n%s", err, out)
	}
	for _, want := range []string{"== tab1:", "== phase trace ==", "train: epoch"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("sambench output missing %q:\n%s", want, out)
		}
	}

	f, err := os.Open(runlogPath)
	if err != nil {
		t.Fatalf("run log: %v", err)
	}
	entries, err := obs.ReadRunLog(f) // rejects a log without run_end
	f.Close()
	if err != nil {
		t.Fatalf("run log invalid: %v", err)
	}
	recs, err := obs.RunLogSpans(entries) // rejects no, orphaned or repeated spans
	if err != nil {
		t.Fatalf("run log span tree invalid: %v", err)
	}
	wall := map[string]int64{}
	for _, rec := range recs {
		wall[rec.Name] += rec.WallUS
	}
	for _, phase := range []string{"train", "sample", "merge", "eval"} {
		if _, ok := wall[phase]; !ok {
			t.Fatalf("span tree missing %q phase span (have %v)", phase, wall)
		}
		if wall[phase] <= 0 {
			t.Fatalf("phase %q has no recorded wall time", phase)
		}
	}
	if root := recs[0]; root.Attrs["seed"] == nil {
		t.Fatalf("span root missing the seed attr: %v", root.Attrs)
	}
	if !strings.Contains(string(entries[0].Data), `"go_version"`) {
		t.Fatalf("run_start carries no build metadata: %s", entries[0].Data)
	}

	// samreport must analyze the same span tree: it carries the pipeline
	// phases, and diffing the run log against itself as baseline yields
	// zero wall deltas — the CI smoke for trace analysis.
	samreport := filepath.Join(dir, "samreport")
	if out, err := exec.Command("go", "build", "-o", samreport, "./cmd/samreport").CombinedOutput(); err != nil {
		t.Fatalf("build samreport: %v\n%s", err, out)
	}
	out, err = exec.Command(samreport, "-runlog", runlogPath, "-baseline", runlogPath, "-top", "5").CombinedOutput()
	if err != nil {
		t.Fatalf("samreport: %v\n%s", err, out)
	}
	for _, want := range []string{"span paths", "train", "sample", "top spans by self time"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("samreport output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(string(out), "Δwall") || !strings.Contains(string(out), "+0s") {
		t.Fatalf("samreport self-diff should report zero deltas:\n%s", out)
	}
}

// TestSamreportSmoke is the run-report gate: it runs the smoke experiment
// with every artifact flag enabled — run log and metrics dump — then
// fuses them with samreport and fails unless the artifacts join on one
// run ID and the report carries the expected sections. A change that
// breaks run-ID stamping on any surface fails here.
func TestSamreportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	sambench := filepath.Join(dir, "sambench")
	samreport := filepath.Join(dir, "samreport")
	for bin, pkg := range map[string]string{sambench: "./cmd/sambench", samreport: "./cmd/samreport"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	runlogPath := filepath.Join(dir, "run.log")
	metricsPath := filepath.Join(dir, "metrics.prom")
	cmd := exec.Command(sambench, "-scale", "smoke", "-exp", "tab1",
		"-runlog", runlogPath, "-metrics-out", metricsPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sambench smoke: %v\n%s", err, out)
	}

	// Every artifact must exist and claim the same run as the run log.
	f, err := os.Open(runlogPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := obs.ReadRunLog(f)
	f.Close()
	if err != nil {
		t.Fatalf("run log invalid: %v", err)
	}
	runID := entries[0].RunID
	if runID == "" {
		t.Fatal("run log carries no run ID")
	}

	rep, err := exec.Command(samreport, "-runlog", runlogPath,
		"-metrics", metricsPath, "-top", "5").CombinedOutput()
	if err != nil {
		t.Fatalf("samreport: %v\n%s", err, rep)
	}
	for _, want := range []string{
		"# SAM run report",
		"Run ID: `" + runID + "`",
		"## Phase trace",
		"## Q-Error",
		"## Metrics",
	} {
		if !strings.Contains(string(rep), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}

	// -o writes the same Markdown report to a file.
	mdPath := filepath.Join(dir, "report.md")
	if out, err := exec.Command(samreport, "-runlog", runlogPath,
		"-o", mdPath).CombinedOutput(); err != nil {
		t.Fatalf("samreport -o: %v\n%s", err, out)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(md), "# SAM run report") || !strings.Contains(string(md), runID) {
		t.Fatalf("markdown report malformed:\n%.400s", md)
	}

	// Mixing artifacts from different runs must fail the join: the second
	// run's log against the first run's metrics.
	second := filepath.Join(dir, "run2.log")
	if out, err := exec.Command(sambench, "-scale", "smoke", "-exp", "tab1",
		"-runlog", second).CombinedOutput(); err != nil {
		t.Fatalf("second sambench run: %v\n%s", err, out)
	}
	if out, err := exec.Command(samreport, "-runlog", second, "-metrics", metricsPath).CombinedOutput(); err == nil {
		t.Fatalf("samreport accepted artifacts from different runs:\n%s", out)
	} else if !strings.Contains(string(out), "disagree on the run ID") {
		t.Fatalf("mismatch error not surfaced:\n%s", out)
	}
}

// TestSambenchPrometheusEndpoint is the exposition-format gate: it runs
// the smoke experiment with a live -debug-addr, scrapes /metrics mid-run
// the way a Prometheus server would, and fails unless the payload passes
// the strict format validator and carries the expected labeled families.
func TestSambenchPrometheusEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sambench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sambench").CombinedOutput(); err != nil {
		t.Fatalf("build sambench: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-scale", "smoke", "-exp", "tab1", "-debug-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer func() {
		cmd.Process.Kill()
		<-done
	}()

	// The bound address is announced on stderr before the run starts.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			addr = strings.Fields(line[i:])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("debug address never announced (scan err %v)", sc.Err())
	}
	go func() { // keep the pipe drained so the run cannot block on stderr
		for sc.Scan() {
		}
	}()

	// Scrape until the training families appear (the run needs a moment to
	// emit its first events), validating the format on every fetch.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(addr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
			t.Fatalf("/metrics content type = %q", got)
		}
		fams, err := obs.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("live /metrics failed format validation: %v", err)
		}
		byName := map[string]obs.PromFamily{}
		for _, f := range fams {
			byName[f.Name] = f
		}
		if f, ok := byName["train_steps_total"]; ok && f.Type == "counter" && len(f.Samples) == 1 {
			if h, ok := byName["train_step_seconds"]; !ok || h.Type != "histogram" {
				t.Fatalf("train_step_seconds missing or not a histogram: %+v", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("train_steps_total never appeared; families: %d", len(fams))
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Events go to the run log only; the server keeps no event ring.
	resp, err := http.Get(addr + "/debug/events")
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/events: status %d, want 404", resp.StatusCode)
	}
}
