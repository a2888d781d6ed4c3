// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs. The
// module deliberately has no third-party dependencies, so the samlint
// analyzer suite (internal/lint) is written against this package instead
// of x/tools. The shapes mirror the upstream API — Analyzer, Pass,
// Diagnostic, SuggestedFix — so the analyzers can be ported to a real
// multichecker by swapping the import if the dependency policy ever
// changes.
//
// The package provides three layers:
//
//   - a Loader that enumerates packages with `go list -json`, parses them
//     with go/parser, and typechecks them with go/types using the stdlib
//     "source" importer (load.go);
//   - a driver that runs analyzers over loaded packages and applies
//     //lint:allow suppression markers (driver.go);
//   - suggested-fix application for mechanical rewrites (fix.go).
//
// The fixture test harness (the analysistest analogue) lives in the
// analysistest subpackage.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name appears in diagnostics and in
// //lint:allow markers; Doc is the one-paragraph invariant description
// printed by `samlint -list`.
type Analyzer struct {
	Name string
	Doc  string

	// PipelineOnly restricts the analyzer to the configured pipeline
	// packages (Config.IsPipeline); repo-wide analyzers leave it false.
	PipelineOnly bool

	Run func(*Pass) error
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Sources maps filenames to raw file contents, for analyzers that
	// need surrounding text (indentation for inserted fixes, line
	// classification).
	Sources map[string][]byte

	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding. End is optional (NoPos means "unknown").
type Diagnostic struct {
	Pos            token.Pos
	End            token.Pos
	Message        string
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is a mechanical rewrite that resolves a diagnostic. All
// edits must apply, or none.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. Pos == End
// is an insertion.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
