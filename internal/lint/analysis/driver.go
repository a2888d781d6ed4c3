package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one driver-level result: a diagnostic resolved to positions,
// tagged with its analyzer, and annotated with suppression state.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []SuggestedFix

	// Suppressed is set when a //lint:allow marker covers the finding;
	// SuppressReason carries the marker's justification.
	Suppressed     bool
	SuppressReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Config controls a driver run.
type Config struct {
	// IsPipeline classifies import paths as pipeline packages; analyzers
	// with PipelineOnly set are skipped elsewhere. A nil func treats
	// every package as pipeline.
	IsPipeline func(importPath string) bool
}

// allowMarker is one parsed //lint:allow comment.
type allowMarker struct {
	analyzer   string
	reason     string
	line       int  // line the comment appears on
	standalone bool // comment is the only thing on its line (covers next line)
	pos        token.Pos
	used       bool
}

const allowPrefix = "//lint:allow"

// Run executes each analyzer over each package and returns the combined
// findings, sorted by position. Suppression markers are applied here, not
// in analyzers: a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line (or alone on the line above it) marks the finding
// as an intentional exception. Markers must name an analyzer and carry a
// non-empty reason, and must suppress at least one finding — malformed or
// unused markers are themselves reported, so stale exceptions surface
// instead of rotting.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg Config) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		markers, bad := parseMarkers(pkg)
		for _, f := range bad {
			findings = append(findings, f)
		}
		pipeline := cfg.IsPipeline == nil || cfg.IsPipeline(pkg.ImportPath)
		for _, a := range analyzers {
			if a.PipelineOnly && !pipeline {
				continue
			}
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset(),
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Sources:   pkg.Sources,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				pos := pass.Fset.Position(d.Pos)
				f := Finding{Analyzer: a.Name, Pos: pos, Message: d.Message, Fixes: d.SuggestedFixes}
				if m := matchMarker(markers[pos.Filename], a.Name, pos.Line); m != nil {
					m.used = true
					f.Suppressed = true
					f.SuppressReason = m.reason
				}
				findings = append(findings, f)
			}
		}
		for _, ms := range markers {
			for _, m := range ms {
				if !m.used {
					findings = append(findings, Finding{
						Analyzer: "samlint",
						Pos:      pkg.Fset().Position(m.pos),
						Message:  fmt.Sprintf("unused //lint:allow marker for %q: no finding on this line", m.analyzer),
					})
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// Fset returns the FileSet package positions resolve against. All
// packages from one Loader share a FileSet; it is recovered from any
// file's position table.
func (p *Package) Fset() *token.FileSet {
	return p.fset
}

// parseMarkers extracts //lint:allow markers per file. Malformed markers
// (missing analyzer or reason) become findings.
func parseMarkers(pkg *Package) (map[string][]*allowMarker, []Finding) {
	markers := make(map[string][]*allowMarker)
	var bad []Finding
	fset := pkg.Fset()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "samlint",
						Pos:      pos,
						Message:  "malformed //lint:allow marker: want \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				m := &allowMarker{
					analyzer:   fields[0],
					reason:     strings.TrimSpace(strings.TrimPrefix(rest, fields[0])),
					line:       pos.Line,
					standalone: commentStandsAlone(pkg.Sources[pos.Filename], pos),
					pos:        c.Pos(),
				}
				markers[pos.Filename] = append(markers[pos.Filename], m)
			}
		}
	}
	return markers, bad
}

// commentStandsAlone reports whether only whitespace precedes the comment
// on its source line.
func commentStandsAlone(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// matchMarker finds an unused-or-used marker covering (analyzer, line): a
// marker on the same line, or a standalone marker on the previous line.
func matchMarker(ms []*allowMarker, analyzer string, line int) *allowMarker {
	for _, m := range ms {
		if m.analyzer != analyzer {
			continue
		}
		if m.line == line || (m.standalone && m.line == line-1) {
			return m
		}
	}
	return nil
}
