package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sam/internal/lint/analysis"
	"sam/internal/lint/analysis/analysistest"
)

// One loader for the whole test binary: the source importer typechecks
// the module's real packages once and every fixture reuses the cache.
var (
	loaderOnce sync.Once
	loader     *analysis.Loader
)

func fixtureLoader() *analysis.Loader {
	loaderOnce.Do(func() { loader = analysis.NewLoader() })
	return loader
}

func TestDetRandFixtures(t *testing.T) {
	diags := analysistest.Run(t, fixtureLoader(), DetRand, "testdata/src/detrand")

	// The clock-seed findings must carry a mechanical fix that swaps the
	// seed expression for a literal.
	fixes := 0
	for _, d := range diags {
		if !strings.Contains(d.Message, "time.Now()") {
			continue
		}
		if len(d.SuggestedFixes) != 1 || len(d.SuggestedFixes[0].TextEdits) != 1 {
			t.Fatalf("clock-seed finding %q: want exactly one single-edit fix, got %+v", d.Message, d.SuggestedFixes)
		}
		if got := string(d.SuggestedFixes[0].TextEdits[0].NewText); got != "1" {
			t.Errorf("clock-seed fix text = %q, want \"1\"", got)
		}
		fixes++
	}
	if fixes == 0 {
		t.Error("no clock-seed finding carried a suggested fix")
	}
}

func TestHotAllocFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), HotAlloc, "testdata/src/hotalloc")
}

func TestSpanEndFixtures(t *testing.T) {
	diags := analysistest.Run(t, fixtureLoader(), SpanEnd, "testdata/src/spanend")

	// The never-ended span has a mechanical fix: apply it and check the
	// defer lands right after the start, at matching indentation.
	neverEnded := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "never ended") {
			continue
		}
		if len(d.SuggestedFixes) != 1 || len(d.SuggestedFixes[0].TextEdits) != 1 {
			t.Fatalf("never-ended finding: want one single-edit fix, got %+v", d.SuggestedFixes)
		}
		pos := fixtureLoader().Fset.Position(d.SuggestedFixes[0].TextEdits[0].Pos)
		src, err := os.ReadFile(pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := analysis.ApplyFixes(fixtureLoader().Fset, map[string][]byte{pos.Filename: src},
			[]analysis.Finding{{Fixes: d.SuggestedFixes}})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(patched[pos.Filename]); !strings.Contains(got, "Child(\"phase\")\n\tdefer sp.End()") {
			t.Errorf("applied fix did not insert defer right after the span start:\n%s", got)
		}
		neverEnded = true
		break
	}
	if !neverEnded {
		t.Error("no never-ended finding reported")
	}
	// Every finding, uncovered exits included, carries the same defer fix.
	roundTripFixes(t, SpanEnd, "testdata/src/spanend", diags)
}

func TestGraphResetFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), GraphReset, "testdata/src/graphreset")
}

func TestErrPropagateFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), ErrPropagate, "testdata/src/errpropagate")
}

func TestObsNilFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), ObsNil, "testdata/src/obsnil")
}

func TestMapOrderFixtures(t *testing.T) {
	diags := analysistest.Run(t, fixtureLoader(), MapOrder, "testdata/src/maporder")
	roundTripFixes(t, MapOrder, "testdata/src/maporder", diags)
}

func TestGoLeakFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), GoLeak, "testdata/src/goleak")
}

func TestLockGuardFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), LockGuard, "testdata/src/lockguard")
}

func TestCloseLeakFixtures(t *testing.T) {
	diags := analysistest.Run(t, fixtureLoader(), CloseLeak, "testdata/src/closeleak")
	roundTripFixes(t, CloseLeak, "testdata/src/closeleak", diags)
}

func TestVecCardFixtures(t *testing.T) {
	analysistest.Run(t, fixtureLoader(), VecCard, "testdata/src/veccard")
}

// roundTripFixes applies every suggested fix a fixture run produced,
// writes the patched package to a temp dir, reruns the analyzer on it,
// and asserts the findings are gone: the mechanical rewrite must satisfy
// the analyzer that demanded it.
func roundTripFixes(t *testing.T, a *analysis.Analyzer, dir string, diags []analysis.Diagnostic) {
	t.Helper()
	var findings []analysis.Finding
	for _, d := range diags {
		if len(d.SuggestedFixes) > 0 {
			findings = append(findings, analysis.Finding{Fixes: d.SuggestedFixes})
		}
	}
	if len(findings) == 0 {
		t.Fatal("no suggested fixes to round-trip")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[path] = src
	}
	patched, err := analysis.ApplyFixes(fixtureLoader().Fset, sources, findings)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	tmp := t.TempDir()
	for path, src := range sources {
		if p, ok := patched[path]; ok {
			src = p
		}
		if err := os.WriteFile(filepath.Join(tmp, filepath.Base(path)), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := fixtureLoader().LoadDir(tmp, "samlint.fixture/"+a.Name+"_fixed")
	if err != nil {
		t.Fatalf("reloading fixed fixture: %v", err)
	}
	var rerun []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fixtureLoader().Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Sources:   pkg.Sources,
		Report:    func(d analysis.Diagnostic) { rerun = append(rerun, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatal(err)
	}
	for _, d := range rerun {
		t.Errorf("finding survives its own fix: %s: %s", fixtureLoader().Fset.Position(d.Pos), d.Message)
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) < 11 {
		t.Fatalf("suite has %d analyzers, want at least 11", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run func", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{
		"detrand", "hotalloc", "spanend", "graphreset", "errpropagate", "obsnil",
		"maporder", "goleak", "lockguard", "closeleak", "veccard",
	} {
		if !seen[name] {
			t.Errorf("suite is missing required analyzer %q", name)
		}
	}
}

func TestIsPipelinePackage(t *testing.T) {
	for path, want := range map[string]bool{
		"sam/internal/tensor":      true,
		"sam/internal/ar":          true,
		"sam/internal/obs":         false,
		"sam/cmd/samlint":          false,
		"samlint.fixture/hotalloc": false,
	} {
		if got := IsPipelinePackage(path); got != want {
			t.Errorf("IsPipelinePackage(%q) = %v, want %v", path, got, want)
		}
	}
}
