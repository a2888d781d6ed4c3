package analysis

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// toyAnalyzer flags every call to a function literally named "boom" — just
// enough analyzer to exercise the driver's marker and gating logic.
func toyAnalyzer(pipelineOnly bool) *Analyzer {
	return &Analyzer{
		Name:         "toybomb",
		Doc:          "flags calls to boom",
		PipelineOnly: pipelineOnly,
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
							p.Reportf(call.Pos(), "call to boom")
						}
					}
					return true
				})
			}
			return nil
		},
	}
}

func loadAllowFixture(t *testing.T) (*Loader, *Package) {
	t.Helper()
	l := NewLoader()
	pkg, err := l.LoadDir("testdata/src/allow", "samlint.fixture/allow")
	if err != nil {
		t.Fatal(err)
	}
	return l, pkg
}

func TestDriverAllowMarkers(t *testing.T) {
	_, pkg := loadAllowFixture(t)
	findings, err := Run([]*Package{pkg}, []*Analyzer{toyAnalyzer(false)}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	var suppressed, unsuppressed, malformed, unused int
	var reasons []string
	for _, f := range findings {
		switch {
		case f.Analyzer == "samlint" && strings.Contains(f.Message, "malformed"):
			malformed++
		case f.Analyzer == "samlint" && strings.Contains(f.Message, "unused"):
			unused++
		case f.Suppressed:
			suppressed++
			reasons = append(reasons, f.SuppressReason)
		default:
			unsuppressed++
		}
	}
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (same-line and line-above markers)", suppressed)
	}
	for _, want := range []string{"calls boom on purpose", "standalone marker above"} {
		found := false
		for _, r := range reasons {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no suppressed finding carries reason %q (got %v)", want, reasons)
		}
	}
	if unsuppressed != 2 {
		t.Errorf("unsuppressed = %d, want 2 (bare call and the one under a malformed marker)", unsuppressed)
	}
	if malformed != 1 {
		t.Errorf("malformed-marker findings = %d, want 1", malformed)
	}
	if unused != 1 {
		t.Errorf("unused-marker findings = %d, want 1", unused)
	}

	// Findings come back position-sorted.
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1].Pos, findings[i].Pos
		if a.Filename == b.Filename && a.Line > b.Line {
			t.Fatalf("findings not sorted: %s before %s", findings[i-1], findings[i])
		}
	}
}

func TestDriverPipelineGating(t *testing.T) {
	_, pkg := loadAllowFixture(t)

	notPipeline := func(string) bool { return false }
	findings, err := Run([]*Package{pkg}, []*Analyzer{toyAnalyzer(true)}, Config{IsPipeline: notPipeline})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "toybomb" {
			t.Fatalf("pipeline-only analyzer ran on a non-pipeline package: %s", f)
		}
	}

	// With no classifier every package counts as pipeline.
	findings, err = Run([]*Package{pkg}, []*Analyzer{toyAnalyzer(true)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	for _, f := range findings {
		if f.Analyzer == "toybomb" {
			ran = true
		}
	}
	if !ran {
		t.Fatal("pipeline-only analyzer did not run under a nil classifier")
	}
}

func TestApplyFixes(t *testing.T) {
	fset := token.NewFileSet()
	src := []byte("abcdef")
	file := fset.AddFile("x.go", -1, len(src))
	file.SetLinesForContent(src)
	pos := func(off int) token.Pos { return file.Pos(off) }

	findings := []Finding{
		{Fixes: []SuggestedFix{{TextEdits: []TextEdit{{Pos: pos(1), End: pos(3), NewText: []byte("XY")}}}}},
		{Fixes: []SuggestedFix{{TextEdits: []TextEdit{{Pos: pos(5), End: pos(5), NewText: []byte("Z")}}}}},
		// Suppressed findings contribute no edits.
		{Suppressed: true, Fixes: []SuggestedFix{{TextEdits: []TextEdit{{Pos: pos(0), End: pos(6), NewText: []byte("GONE")}}}}},
	}
	out, err := ApplyFixes(fset, map[string][]byte{"x.go": src}, findings)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out["x.go"]); got != "aXYdeZf" {
		t.Errorf("ApplyFixes = %q, want %q", got, "aXYdeZf")
	}

	overlapping := []Finding{
		{Fixes: []SuggestedFix{{TextEdits: []TextEdit{{Pos: pos(1), End: pos(3), NewText: []byte("X")}}}}},
		{Fixes: []SuggestedFix{{TextEdits: []TextEdit{{Pos: pos(2), End: pos(4), NewText: []byte("Y")}}}}},
	}
	if _, err := ApplyFixes(fset, map[string][]byte{"x.go": src}, overlapping); err == nil {
		t.Fatal("overlapping edits did not error")
	}
}
