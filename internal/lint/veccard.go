package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"sam/internal/lint/analysis"
)

// VecCard protects the two contracts of the labeled-metric layer: warm
// loops stay 0 allocs/op because With() handles are pre-resolved outside
// them (With takes the vector's RWMutex and may allocate a child), and
// label sets stay finite because every distinct label tuple is a child
// the registry keeps for the life of the process, so unbounded label
// values grow it without limit. Two checks:
//
//   - a With() call on an obs vector (CounterVec/GaugeVec/HistogramVec)
//     lexically inside a loop, unless the loop ranges over a constant
//     composite literal (bounded setup loops like the per-pass handle
//     table in obs hooks) or the enclosing function is a constructor;
//   - a With() argument computed by strconv.*/fmt.Sprint* — stringifying
//     a number is the classic unbounded-label mistake; if the number is
//     provably bounded, say so with a //lint:allow marker.
var VecCard = &analysis.Analyzer{
	Name: "veccard",
	Doc: "require labeled-metric With() handles to be pre-resolved outside hot " +
		"loops and label values to come from bounded sets",
	Run: runVecCard,
}

func runVecCard(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkVecScope(pass, name, body)
		})
	}
	return nil
}

func checkVecScope(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	constructor := isConstructorName(name)
	walkParents(body, func(n ast.Node, parents []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isVecWith(pass.TypesInfo, call) {
			return
		}
		// Closures are separate scopes; their With calls are visited when
		// funcBodies hands us the literal itself.
		if insideFuncLit(parents) {
			return
		}
		if !constructor {
			if loop := enclosingLoop(parents); loop != nil && !isBoundedLoop(pass.TypesInfo, loop) {
				pass.Reportf(call.Pos(),
					"vector With() inside a loop resolves the handle every iteration (lock + map lookup); pre-resolve it outside the loop")
			}
		}
		for _, arg := range call.Args {
			if desc := unboundedLabelArg(pass.TypesInfo, arg); desc != "" {
				pass.Reportf(arg.Pos(),
					"label value computed with %s is unbounded; label cardinality must be finite (every distinct value is a child the registry keeps, so unbounded values grow it without limit)", desc)
			}
		}
	})
}

// isVecWith reports whether call is With() on one of the obs labeled
// vector types.
func isVecWith(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "With" || pkgPath(fn) != obsPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOrPointee(sig.Recv().Type())
	if n == nil {
		return false
	}
	switch n.Obj().Name() {
	case "CounterVec", "GaugeVec", "HistogramVec":
		return true
	}
	return false
}

// enclosingLoop returns the innermost for/range statement on the
// ancestor chain, or nil.
func enclosingLoop(parents []ast.Node) ast.Stmt {
	for i := len(parents) - 1; i >= 0; i-- {
		switch s := parents[i].(type) {
		case *ast.ForStmt:
			return s
		case *ast.RangeStmt:
			return s
		}
	}
	return nil
}

// isBoundedLoop recognizes the blessed setup shape: ranging over a
// composite literal of constants (`for _, pass := range []string{...}`).
// Such loops run a fixed, small number of iterations at registration
// time, where resolving handles is the point.
func isBoundedLoop(info *types.Info, loop ast.Stmt) bool {
	r, ok := loop.(*ast.RangeStmt)
	if !ok {
		return false
	}
	lit, ok := ast.Unparen(r.X).(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		tv, ok := info.Types[elt]
		if !ok || tv.Value == nil {
			return false
		}
	}
	return true
}

// unboundedLabelArg classifies arg as an unbounded label value: a direct
// strconv or fmt.Sprint* stringification of a runtime value.
func unboundedLabelArg(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || !isPkgLevel(fn) {
		return ""
	}
	switch pkgPath(fn) {
	case "strconv":
		if strings.HasPrefix(fn.Name(), "Format") || fn.Name() == "Itoa" || fn.Name() == "Quote" {
			return "strconv." + fn.Name()
		}
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Sprint") {
			return "fmt." + fn.Name()
		}
	}
	return ""
}
