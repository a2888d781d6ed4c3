package lint

import (
	"go/ast"
	"go/types"

	"sam/internal/lint/analysis"
)

// randConstructors are the math/rand entry points that do not touch the
// package-global source: they build explicit generators the caller owns
// (and is responsible for seeding deterministically).
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2
	"NewPCG":     true,
	"NewChaCha8": true,
}

// seedSinks are the constructors whose integer arguments become RNG seeds;
// detrand rejects clock-derived values flowing into them.
var seedSinks = map[string]bool{
	"NewSource": true,
	"New":       true,
	"NewPCG":    true,
	"Seed":      true, // (*rand.Rand).Seed — deterministic reseeding is fine, clock seeding is not
}

// DetRand enforces the determinism contract on pipeline packages:
// generated databases must be bit-identical for a fixed (seed, samples),
// so randomness must flow in as parameters or per-sample streams.
// It flags (1) calls to math/rand and math/rand/v2 package-level
// functions, which draw from unseeded process-global state, and (2) RNG
// seeds derived from time.Now, with a suggested fix replacing the
// clock-derived seed with the literal 1.
var DetRand = &analysis.Analyzer{
	Name:         "detrand",
	PipelineOnly: true,
	Doc: "forbid global math/rand state and time-derived RNG seeds in pipeline packages; " +
		"RNGs must be injected and deterministically seeded",
	Run: runDetRand,
}

func runDetRand(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			path := pkgPath(fn)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if isPkgLevel(fn) && !randConstructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"call to global %s.%s draws from process-global RNG state; inject a seeded *rand.Rand instead",
					path, fn.Name())
				return true
			}
			if seedSinks[fn.Name()] {
				for _, arg := range call.Args {
					if now := findTimeNow(pass.TypesInfo, arg); now != nil {
						pass.Report(analysis.Diagnostic{
							Pos: now.Pos(),
							Message: "RNG seed derived from time.Now() breaks run-to-run determinism; " +
								"use a fixed or injected seed",
							SuggestedFixes: []analysis.SuggestedFix{{
								Message:   "replace clock-derived seed with the literal 1",
								TextEdits: []analysis.TextEdit{{Pos: arg.Pos(), End: arg.End(), NewText: []byte("1")}},
							}},
						})
					}
				}
			}
			return true
		})
	}
	return nil
}

// findTimeNow returns the first call to time.Now in the expression
// subtree, or nil. Subtrees that are themselves seed-sink calls are
// skipped: rand.New(rand.NewSource(time.Now()...)) reports once, at the
// inner sink whose argument the suggested fix can safely replace.
func findTimeNow(info *types.Info, expr ast.Expr) ast.Node {
	var found ast.Node
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch path := pkgPath(fn); {
		case path == "time" && fn.Name() == "Now":
			found = call
			return false
		case (path == "math/rand" || path == "math/rand/v2") && seedSinks[fn.Name()]:
			return false // the inner sink's own visit reports it
		}
		return true
	})
	return found
}
