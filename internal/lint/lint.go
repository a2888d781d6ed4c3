// Package lint is samlint: the project-specific static-analysis suite
// that turns invariants earlier PRs bought at runtime into machine-checked
// law. Each analyzer encodes one invariant:
//
//   - detrand: sampling is bit-deterministic for a fixed (seed,
//     samples) — pipeline packages must not draw from the global math/rand
//     state or seed RNGs from the clock.
//   - hotalloc: warm train/sample steps are zero-allocation — loops in
//     pipeline packages must not call allocating tensor constructors or
//     ops that have pooled/...Into variants.
//   - spanend: an obs phase span started in a function is ended on every
//     path, or ownership is explicitly handed off.
//   - graphreset: a pooled gradient tape rebuilt every loop iteration is
//     Reset each iteration, or it leaks nodes (the PR 1 tape-leak class).
//   - errpropagate: errors from relation/obs IO and JSONL serialization
//     are never silently dropped.
//   - obsnil: observer callbacks are invoked through their nil-safe
//     wrappers, never directly off the Hooks struct.
//   - maporder: values derived from map iteration order never reach
//     writers, hashes, RNG seeding, or heap comparators (taint analysis
//     over def-use chains; sort.* sanitizes).
//   - goleak: goroutines signal completion (WaitGroup.Done, close, or
//     channel send) on every CFG exit path.
//   - lockguard: fields written under a struct's mutex anywhere in a
//     package are never accessed bare elsewhere in it.
//   - closeleak: os file handles (os.Create/Open/OpenFile/CreateTemp)
//     reach Close on every path or are explicitly handed off.
//   - veccard: labeled-metric With() handles are pre-resolved outside
//     hot loops, and label values come from bounded sets.
//
// The suite runs via `go run ./cmd/samlint ./...` and in the CI lint job.
// Intentional exceptions carry a //lint:allow <analyzer> <reason> marker
// on (or on the standalone line above) the flagged line; the driver
// rejects markers with no reason and markers that suppress nothing.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sam/internal/lint/analysis"
)

// Import paths the analyzers reason about.
const (
	tensorPath   = "sam/internal/tensor"
	obsPath      = "sam/internal/obs"
	relationPath = "sam/internal/relation"
)

// PipelinePackages are the packages under the determinism and hot-path
// allocation contracts (detrand, hotalloc). The rest of the module gets
// the repo-wide analyzers only.
var PipelinePackages = map[string]bool{
	"sam/internal/ar":     true,
	"sam/internal/core":   true,
	"sam/internal/nn":     true,
	"sam/internal/tensor": true,
	"sam/internal/pgm":    true,
	"sam/internal/engine": true,
}

// IsPipelinePackage reports whether importPath is under the pipeline
// contracts; fixture packages (loaded under samlint.fixture/) never are,
// so fixtures exercise analyzers directly.
func IsPipelinePackage(importPath string) bool {
	return PipelinePackages[importPath]
}

// Suite returns every samlint analyzer, in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRand,
		HotAlloc,
		SpanEnd,
		GraphReset,
		ErrPropagate,
		ObsNil,
		MapOrder,
		GoLeak,
		LockGuard,
		CloseLeak,
		VecCard,
	}
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPath returns the import path of the package declaring fn ("" for
// builtins and universe-scope objects).
func pkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgLevel reports whether fn is a package-level function (no receiver).
func isPkgLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// namedOrPointee unwraps one level of pointer and reports the named type
// beneath, if any.
func namedOrPointee(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t is (a pointer to) the named type
// path.name.
func isNamedType(t types.Type, path, name string) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// funcBodies visits every function body in the file — declarations and
// literals — handing each to visit with the enclosing declaration's name
// ("" for literals) and its type. Each body is one analysis scope.
func funcBodies(f *ast.File, visit func(name string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Name.Name, fd.Type, fd.Body)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			visit("", lit.Type, lit.Body)
		}
		return true
	})
}

// inspectShallow walks the subtree under n in source order but does not
// descend into nested function literals: each function body is one
// analysis scope, and statements inside a closure belong to the closure's
// own visit, not its enclosing function's.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(child ast.Node) bool {
		if _, ok := child.(*ast.FuncLit); ok && child != n {
			return false
		}
		return fn(child)
	})
}

// insideFuncLit reports whether the ancestor stack crosses a function
// literal (i.e. the node belongs to a nested closure's scope).
func insideFuncLit(parents []ast.Node) bool {
	for _, p := range parents {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// walkParents traverses the subtree under root in source order, handing
// visit each node together with its ancestor stack (outermost first,
// excluding the node itself). Unlike inspectShallow it does descend into
// nested function literals; callers that need scope boundaries can check
// the stack for *ast.FuncLit entries.
func walkParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// lineIndent returns the leading whitespace of the source line containing
// pos, for indentation-preserving insertions.
func lineIndent(src []byte, pos token.Position) string {
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || start > len(src) {
		return ""
	}
	line := string(src[start:])
	return line[:len(line)-len(strings.TrimLeft(line, " \t"))]
}

// containsPos reports whether node's source range covers pos.
func containsPos(node ast.Node, pos token.Pos) bool {
	return node != nil && node.Pos() <= pos && pos < node.End()
}
