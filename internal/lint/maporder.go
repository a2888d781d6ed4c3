package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sam/internal/lint/analysis"
)

// MapOrder enforces the (seed, samples) determinism contract at its most
// common failure point: Go map iteration order is randomized per run, so
// any value derived from ranging over a map must never reach an output
// writer, a hash, an RNG seed, or a merge comparator. A violation
// produces a database that differs run to run with the same seed — the
// exact breakage TestGenerateMatchesStreamBytes exists to catch, except
// the analyzer catches it in every function, not just the tested ones.
//
// The check is taint-based: variables bound by `range m` (m a map) are
// seeds, the def-use graph (analysis.BuildTaint) propagates through
// assignments, and sort.*/slices.Sort* calls sanitize — the established
// repo pattern of collecting keys into a slice and sorting before
// iterating is recognized as clean.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "forbid values derived from map iteration order from reaching writers, " +
		"hashes, RNG seeding, or heap comparators (sort keys first)",
	Run: runMapOrder,
}

func runMapOrder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkMapOrderScope(pass, body)
		})
	}
	return nil
}

func checkMapOrderScope(pass *analysis.Pass, body *ast.BlockStmt) {
	g := analysis.BuildTaint(body, pass.TypesInfo)

	// Map ranges in this scope only — closures are visited as their own
	// scopes, so descending into them here would double-report.
	var ranges []*ast.RangeStmt
	inspectShallow(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && isMapRange(pass.TypesInfo, r) {
			ranges = append(ranges, r)
		}
		return true
	})
	if len(ranges) == 0 {
		return
	}

	reported := make(map[token.Pos]bool)
	for _, r := range ranges {
		fixed := false
		var seeds []types.Object
		for _, e := range []ast.Expr{r.Key, r.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					seeds = append(seeds, obj)
				}
			}
		}
		if len(seeds) == 0 {
			continue
		}
		tainted := g.Reach(seeds)
		rangeLine := pass.Fset.Position(r.Pos()).Line

		// Sinks anywhere in the body, closures included: a tainted value
		// captured by a worker closure is just as nondeterministic.
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			desc, args := orderSink(pass.TypesInfo, call)
			if desc == "" || reported[call.Pos()] {
				return true
			}
			for _, arg := range args {
				if !argTainted(pass.TypesInfo, arg, tainted) {
					continue
				}
				reported[call.Pos()] = true
				d := analysis.Diagnostic{
					Pos: call.Pos(),
					Message: fmt.Sprintf(
						"value derived from map iteration order reaches %s (map range at line %d); iterate over sorted keys",
						desc, rangeLine),
				}
				// The mechanical rewrite targets the range statement;
				// attach it once per range so fixes never overlap.
				if !fixed {
					if fix, ok := sortedRangeFix(pass, r); ok {
						d.SuggestedFixes = []analysis.SuggestedFix{fix}
						fixed = true
					}
				}
				pass.Report(d)
				break
			}
			return true
		})
	}
}

// isMapRange reports whether r ranges over a map.
func isMapRange(info *types.Info, r *ast.RangeStmt) bool {
	tv, ok := info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// argTainted reports whether arg references any tainted object.
func argTainted(info *types.Info, arg ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := defOrUse(info, id); obj != nil && tainted[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// orderSink classifies call as an order-sensitive sink and returns a
// human-readable description plus the arguments whose taint matters.
// Sinks, per the determinism contract:
//
//   - Write* methods on relation writers, bufio/os/io writers, and
//     hash.Hash implementations (shard bytes, spill runs, CSV rows, and
//     partition hashes must not depend on iteration order);
//   - fmt.Fprint* into any writer;
//   - RNG seeding: math/rand sources, (*math/rand.Rand).Seed (how a
//     sampler points a lane at a sample's stream) and the repo's own
//     per-sample streams (ar.SplitSeed / ar.NewSampleRand);
//   - container/heap.Push — merge-heap comparators see insertion order.
func orderSink(info *types.Info, call *ast.CallExpr) (string, []ast.Expr) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", nil
	}
	path := pkgPath(fn)
	if recv := sig.Recv(); recv != nil {
		switch {
		case path == "math/rand" && fn.Name() == "Seed":
			return fn.FullName(), call.Args
		case !strings.HasPrefix(fn.Name(), "Write"):
			return "", nil
		case path == relationPath,
			path == "bufio", path == "os", path == "io",
			path == "hash", strings.HasPrefix(path, "hash/"):
			return fn.FullName(), call.Args
		}
		return "", nil
	}
	switch path {
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 1 {
			return "fmt." + fn.Name(), call.Args[1:]
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "Seed":
			return path + "." + fn.Name(), call.Args
		}
	case "sam/internal/ar":
		switch fn.Name() {
		case "SplitSeed", "NewSampleRand":
			return "ar." + fn.Name(), call.Args
		}
	case "container/heap":
		if fn.Name() == "Push" && len(call.Args) > 1 {
			return "heap.Push", call.Args[1:]
		}
	}
	return "", nil
}

// sortedRangeFix rewrites `for k, v := range m {` into the sorted-keys
// idiom:
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//	for _, k := range keys {
//		v := m[k]
//
// The fix applies only when the shape is mechanical: the key is a named
// identifier of type string or int, and the range operand is a simple
// expression (identifier or selector). The file must import "sort".
func sortedRangeFix(pass *analysis.Pass, r *ast.RangeStmt) (analysis.SuggestedFix, bool) {
	key, ok := r.Key.(*ast.Ident)
	if !ok || key.Name == "_" || r.Tok != token.DEFINE {
		return analysis.SuggestedFix{}, false
	}
	switch ast.Unparen(r.X).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return analysis.SuggestedFix{}, false
	}
	keyObj := pass.TypesInfo.Defs[key]
	if keyObj == nil {
		return analysis.SuggestedFix{}, false
	}
	basic, ok := keyObj.Type().(*types.Basic)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	var elemType, sortCall string
	switch basic.Kind() {
	case types.String:
		elemType, sortCall = "string", "sort.Strings"
	case types.Int:
		elemType, sortCall = "int", "sort.Ints"
	default:
		return analysis.SuggestedFix{}, false
	}

	pos := pass.Fset.Position(r.Pos())
	src := pass.Sources[pos.Filename]
	indent := lineIndent(src, pos)
	mExpr := string(src[pass.Fset.Position(r.X.Pos()).Offset:pass.Fset.Position(r.X.End()).Offset])

	var sb strings.Builder
	fmt.Fprintf(&sb, "keys := make([]%s, 0, len(%s))\n", elemType, mExpr)
	fmt.Fprintf(&sb, "%sfor %s := range %s {\n", indent, key.Name, mExpr)
	fmt.Fprintf(&sb, "%s\tkeys = append(keys, %s)\n", indent, key.Name)
	fmt.Fprintf(&sb, "%s}\n", indent)
	fmt.Fprintf(&sb, "%s%s(keys)\n", indent, sortCall)
	fmt.Fprintf(&sb, "%sfor _, %s := range keys {", indent, key.Name)
	if val, ok := r.Value.(*ast.Ident); ok && val.Name != "_" {
		fmt.Fprintf(&sb, "\n%s\t%s := %s[%s]", indent, val.Name, mExpr, key.Name)
	}

	return analysis.SuggestedFix{
		Message: "iterate over sorted keys instead of raw map order",
		TextEdits: []analysis.TextEdit{{
			Pos:     r.Pos(),
			End:     r.Body.Lbrace + 1,
			NewText: []byte(sb.String()),
		}},
	}, true
}
