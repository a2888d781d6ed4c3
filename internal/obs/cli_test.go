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
// artifact enabled: each reads back valid and carries the run ID, the run
// log carries the span tree before its run_end, and Close leaves no temp
// file beside them.
func TestCLITelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	tel, err := StartCLITelemetry(CLIFlags{
		Name:        "test",
		Seed:        7,
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
	if got, want := strings.Join(dirNames(t, dir), ","), "metrics.prom,run.log"; got != want {
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
	var kinds []string
	for _, e := range entries {
		kinds = append(kinds, e.Kind)
	}
	if got, want := strings.Join(kinds, ","), "run_start,eval_query,span,span,run_end"; got != want || entries[0].RunID != tel.RunID {
		t.Fatalf("run log kinds %s of run %s, want %s of run %s", got, entries[0].RunID, want, tel.RunID)
	}
	recs, err := RunLogSpans(entries)
	if err != nil {
		t.Fatal(err)
	}
	root := recs[0]
	if root.Name != "test" || root.Live || recs[1].Name != "eval" || recs[1].Parent != root.ID {
		t.Fatalf("span tree %+v, want ended root test with child eval", recs)
	}
	// The root keeps the seed; the run ID and build metadata live on
	// every line and on run_start.
	if len(root.Attrs) != 1 || root.Attrs["seed"] != float64(7) {
		t.Fatalf("root attrs %v, want only seed 7", root.Attrs)
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
// run log under a missing directory fails the start, and a metrics path
// naming a directory fails Close and leaves nothing behind.
func TestCLITelemetryFailedWrite(t *testing.T) {
	dir := t.TempDir()
	if _, err := StartCLITelemetry(CLIFlags{Name: "test", RunLogPath: filepath.Join(dir, "missing", "run.log")}); err == nil ||
		!strings.Contains(err.Error(), "runlog:") {
		t.Fatalf("start with a run log in a missing directory = %v, want a runlog error", err)
	}
	metricsDir := filepath.Join(dir, "metrics.prom")
	if err := os.Mkdir(metricsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tel, err := StartCLITelemetry(CLIFlags{Name: "test", MetricsPath: metricsDir})
	if err != nil {
		t.Fatal(err)
	}
	err = tel.Close(io.Discard)
	if err == nil || !strings.Contains(err.Error(), "metrics-out:") {
		t.Fatalf("Close over a directory = %v, want a metrics-out error", err)
	}
	if got := strings.Join(dirNames(t, dir), ","); got != "metrics.prom" {
		t.Fatalf("failed writes left %s behind", got)
	}
	if got := dirNames(t, metricsDir); len(got) != 0 {
		t.Fatalf("failed metrics write left %v behind", got)
	}
}

// TestCLITelemetryFailedListenKeepsRunLog starts telemetry with a debug
// address that does not parse (so no socket is opened) over an existing
// run log: the start fails and the earlier run log stays byte for byte.
func TestCLITelemetryFailedListenKeepsRunLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.log")
	old := []byte("an earlier run log\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StartCLITelemetry(CLIFlags{Name: "test", RunLogPath: path, DebugAddr: "127.0.0.1:99999"}); err == nil {
		t.Fatal("start with an unparsable debug address succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed start left the run log as %q, want %q", got, old)
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
