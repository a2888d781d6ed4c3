package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CLIFlags are the telemetry flag values the pipeline CLIs (samgen,
// sambench) share; an empty path or address disables its surface.
type CLIFlags struct {
	Name        string // trace root name (the command)
	Seed        int64  // -seed, recorded on the trace root
	RunLogPath  string // -runlog; the run log also carries the span tree
	MetricsPath string // -metrics-out
	DebugAddr   string // -debug-addr
	Progress    bool   // -progress
}

// CLITelemetry is one CLI run's observer wiring. A fresh run ID is
// stamped into every artifact it emits — each run-log line and the
// sam_run_info family — which is how samreport joins them back together.
type CLITelemetry struct {
	RunID string
	Hooks *Hooks // nil when no flag asked for an observer
	Trace *Trace // nil without -runlog; Trace.Root() is nil-safe

	flags      CLIFlags
	reg        *Registry
	runlog     *RunLog
	runlogFile *os.File
	closeDebug func()
}

// StartCLITelemetry mints the run ID and starts what the flags ask for:
// the metrics hooks on the default registry (-debug-addr, -metrics-out),
// the debug server, stderr progress, and the run log with its trace.
// Call Close once the run's work is done.
func StartCLITelemetry(f CLIFlags) (*CLITelemetry, error) {
	t := &CLITelemetry{RunID: NewRunID(), flags: f}
	if f.DebugAddr != "" || f.MetricsPath != "" {
		t.reg = Default()
		StampRunInfo(t.reg, t.RunID, BuildMeta())
		t.Hooks = MetricsHooks(t.reg)
	}
	// The debug server starts before the run log is created, so a failed
	// listen leaves an earlier run log at that path untouched.
	if f.DebugAddr != "" {
		addr, closeDebug, err := ServeDebug(f.DebugAddr, t.reg)
		if err != nil {
			return nil, err
		}
		t.closeDebug = closeDebug
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof, /metrics)\n", addr)
	}
	if f.RunLogPath != "" {
		file, err := os.Create(f.RunLogPath)
		if err != nil {
			if t.closeDebug != nil {
				t.closeDebug()
			}
			return nil, fmt.Errorf("runlog: %w", err)
		}
		t.runlog = NewRunLog(file, t.RunID)
		t.runlogFile = file
		t.Trace = NewTrace(f.Name)
		t.Trace.Root().SetAttr("seed", f.Seed)
	}
	if f.Progress {
		t.Hooks = Merge(t.Hooks, ProgressHooks(os.Stderr))
	}
	if t.runlog != nil {
		t.Hooks = Merge(t.Hooks, EventHooks(t.runlog.Add))
	}
	return t, nil
}

// Close finishes every artifact: it ends the trace root, appends one span
// entry per span (parents first) to the run log and closes it with its
// run_end frame, prints to w the per-path phase tree samreport shows,
// writes the registry as Prometheus text, and stops the debug server.
// Every step runs; their errors are joined. The metrics file is renamed
// into place from a temp file in the same directory, so a run killed
// mid-write leaves no partial file at its path.
func (t *CLITelemetry) Close(w io.Writer) error {
	var errs []error
	if t.runlog != nil {
		t.Trace.Root().End()
		recs := t.Trace.records()
		for _, rec := range recs {
			t.runlog.Add("span", rec)
		}
		if err := errors.Join(t.runlog.Close(), t.runlogFile.Close()); err != nil {
			errs = append(errs, fmt.Errorf("runlog: %w", err))
		}
		fmt.Fprintln(w, "== phase trace ==")
		WriteTraceTree(w, AnalyzeTrace(recs))
	}
	if t.flags.MetricsPath != "" {
		err := writeFileAtomic(t.flags.MetricsPath, func(w io.Writer) error { return WritePrometheus(w, t.reg) })
		if err != nil {
			errs = append(errs, fmt.Errorf("metrics-out: %w", err))
		}
	}
	if t.closeDebug != nil {
		t.closeDebug()
	}
	return errors.Join(errs...)
}

// writeFileAtomic writes path through a temp file in the same directory
// and renames it into place: readers see the old file or the whole new
// one, and a failed write leaves nothing behind.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = errors.Join(f.Chmod(0o644), write(f), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
