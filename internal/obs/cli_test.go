package obs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names
}

// TestCLITelemetryArtifacts runs the shared CLI wiring with every file
// artifact enabled: each reads back valid and carries the run ID, and
// Close leaves no temp file beside them.
func TestCLITelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	tel, err := StartCLITelemetry(CLIFlags{
		Name:        "test",
		Seed:        7,
		TracePath:   filepath.Join(dir, "trace.jsonl"),
		RunLogPath:  filepath.Join(dir, "run.log"),
		MetricsPath: filepath.Join(dir, "metrics.prom"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := tel.Trace.Root().Child("eval")
	tel.Hooks.EvalQuery(EvalQuery{Card: 1, Truth: 2, QError: 2, Table: "t", Preds: 1})
	sp.End()
	var out bytes.Buffer
	if err := tel.Close(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== phase trace ==", "self-alloc", "  eval "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("phase tree missing %q:\n%s", want, out.String())
		}
	}
	if got, want := strings.Join(dirNames(t, dir), ","), "metrics.prom,run.log,trace.jsonl"; got != want {
		t.Fatalf("artifact dir holds %s, want %s", got, want)
	}

	f, err := os.Open(filepath.Join(dir, "run.log"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ReadRunLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[1].Kind != "eval_query" || entries[0].RunID != tel.RunID {
		t.Fatalf("run log %+v, want run_start, eval_query, run_end of run %s", entries, tel.RunID)
	}

	f, err = os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Attrs["run_id"] != tel.RunID {
		t.Fatalf("trace root attrs %v lack run %s", recs[0].Attrs, tel.RunID)
	}

	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePrometheus(bytes.NewReader(prom)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), `run_id="`+tel.RunID+`"`) {
		t.Fatalf("metrics not stamped with run %s", tel.RunID)
	}
}

// TestCLITelemetryFailedWrite pins the crash-safe artifact contract: a
// trace path under a missing directory and a metrics path naming a
// directory both fail Close, and neither leaves a file behind.
func TestCLITelemetryFailedWrite(t *testing.T) {
	dir := t.TempDir()
	metricsDir := filepath.Join(dir, "metrics.prom")
	if err := os.Mkdir(metricsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tel, err := StartCLITelemetry(CLIFlags{
		Name:        "test",
		TracePath:   filepath.Join(dir, "missing", "trace.jsonl"),
		MetricsPath: metricsDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tel.Close(io.Discard)
	if err == nil {
		t.Fatal("Close wrote into a missing directory and over a directory")
	}
	for _, want := range []string{"trace:", "metrics-out:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Close error %q does not name %s", err, want)
		}
	}
	if got := strings.Join(dirNames(t, dir), ","); got != "metrics.prom" {
		t.Fatalf("failed writes left %s behind", got)
	}
	if got := dirNames(t, metricsDir); len(got) != 0 {
		t.Fatalf("failed metrics write left %v behind", got)
	}
}

// TestWriteFileAtomic checks a failed write keeps the previous file whole
// and leaves no temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	writeString := func(s string, err error) func(io.Writer) error {
		return func(w io.Writer) error {
			if _, werr := io.WriteString(w, s); werr != nil {
				return werr
			}
			return err
		}
	}
	if err := writeFileAtomic(path, writeString("old", nil)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := writeFileAtomic(path, writeString("partial", boom)); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "old" {
		t.Fatalf("failed write clobbered the file: %q", buf)
	}
	if got := strings.Join(dirNames(t, dir), ","); got != "out.txt" {
		t.Fatalf("dir holds %s, want out.txt", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", info.Mode().Perm())
	}
}
