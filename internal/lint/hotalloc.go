package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sam/internal/lint/analysis"
)

// tensorAllocators are package-level tensor constructors that always heap-
// allocate; inside loops the pooled Graph.NewTensor (or hoisting) is the
// sanctioned form.
var tensorAllocators = map[string]bool{
	"New":       true,
	"FromSlice": true,
}

// HotAlloc enforces the zero-allocation contract on warm loops in
// pipeline packages (the 115→0 allocs/step result of PR 1, pinned by the
// alloc-regression tests). Inside for/range bodies it flags:
//
//   - tensor.New / tensor.FromSlice and (*Tensor).Clone — fresh heap
//     tensors per iteration; hoist them or draw from a pooled Graph.
//   - calls to a function or method F of the module, or of the analyzed
//     package itself, where F's own package (for a function) or receiver
//     type (for a method) declares an F+"Into" variant: the Into form
//     writes into a caller-owned destination and is the hot-path
//     sanctioned spelling.
//   - append to a slice declared inside an enclosing loop body without a
//     sized make: the temporary regrows from nil every iteration; hoist
//     it and reuse with s = s[:0].
//
// Functions named New*/new* are exempt — constructors run once and build
// persistent state by design — and so are closures defined inside them.
// Other closures are separate scopes: a loop outside a func literal does
// not make the literal's body hot. Slices initialized by a sized make,
// by reslicing an existing slice (s := buf[:0], the in-place filter
// idiom), or by selecting a row of a pooled slice-of-slices
// (lst := pool[i]) are treated as pre-sized and their appends are not
// flagged.
var HotAlloc = &analysis.Analyzer{
	Name:         "hotalloc",
	PipelineOnly: true,
	Doc: "forbid allocating tensor constructors/ops in loops in pipeline packages when a " +
		"pooled or ...Into variant exists; keep warm steps zero-allocation",
	Run: runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Bodies of New*/new* constructors are cold by design; closures
		// defined inside them inherit the exemption (a constructor's setup
		// helper is still setup).
		var exempt []*ast.BlockStmt
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new") {
				exempt = append(exempt, fd.Body)
			}
		}
		funcBodies(f, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
			for _, e := range exempt {
				if containsPos(e, body.Pos()) {
					return
				}
			}
			checkHotScope(pass, body)
		})
	}
	return nil
}

// checkHotScope analyzes one function body: it collects the loop bodies
// in the scope, then flags allocation patterns at positions covered by at
// least one of them.
func checkHotScope(pass *analysis.Pass, scope *ast.BlockStmt) {
	var loopBodies []*ast.BlockStmt
	inspectShallow(scope, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			loopBodies = append(loopBodies, s.Body)
		case *ast.RangeStmt:
			loopBodies = append(loopBodies, s.Body)
		}
		return true
	})
	if len(loopBodies) == 0 {
		return
	}
	inLoop := func(pos token.Pos) bool {
		for _, b := range loopBodies {
			if containsPos(b, pos) {
				return true
			}
		}
		return false
	}
	declaredInLoop := func(pos token.Pos) bool { return inLoop(pos) }

	sizedMake := map[types.Object]bool{}
	inspectShallow(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if inLoop(n.Pos()) {
				checkAllocCall(pass, n)
			}
		case *ast.AssignStmt:
			recordSizedMakes(pass.TypesInfo, n, sizedMake)
			if inLoop(n.Pos()) {
				checkLoopAppend(pass, n, declaredInLoop, sizedMake)
			}
		}
		return true
	})
}

// checkAllocCall flags allocating tensor constructors and calls with an
// ...Into sibling.
func checkAllocCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	path := pkgPath(fn)
	if path == tensorPath {
		if isPkgLevel(fn) && tensorAllocators[fn.Name()] {
			pass.Reportf(call.Pos(),
				"tensor.%s allocates inside a loop; hoist it or use a pooled Graph.NewTensor", fn.Name())
			return
		}
		if fn.Name() == "Clone" && !isPkgLevel(fn) {
			pass.Reportf(call.Pos(),
				"(*tensor.Tensor).Clone allocates inside a loop; hoist the destination and copy into it")
			return
		}
	}
	own := path == pass.Pkg.Path() || strings.HasPrefix(path, "sam/")
	if !own || strings.HasSuffix(fn.Name(), "Into") {
		return
	}
	if intoVariantExists(fn) {
		pass.Reportf(call.Pos(),
			"%s allocates its result inside a loop; use %sInto with a reused destination", fn.Name(), fn.Name())
	}
}

// intoVariantExists reports whether fn's package (for functions) or
// receiver type (for methods) declares fn.Name()+"Into".
func intoVariantExists(fn *types.Func) bool {
	into := fn.Name() + "Into"
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg() != nil && fn.Pkg().Scope().Lookup(into) != nil
	}
	obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), into)
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// isBuiltin reports whether id resolves to the named predeclared builtin
// (rather than a user identifier shadowing it).
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// recordSizedMakes marks slice variables defined by a make with explicit
// length or capacity, by reslicing an existing slice (s := buf[:0], the
// in-place filter idiom), or by selecting a row of a pooled
// slice-of-slices (lst := pool[i], appended to and stored back); appends
// to those reuse capacity on purpose — the backing buffer outlives the
// loop even when the header variable is loop-local.
func recordSizedMakes(info *types.Info, as *ast.AssignStmt, sized map[types.Object]bool) {
	for i, rhs := range as.Rhs {
		presized := false
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			id, ok := ast.Unparen(rhs.Fun).(*ast.Ident)
			presized = ok && len(rhs.Args) >= 2 && isBuiltin(info, id, "make")
		case *ast.SliceExpr:
			presized = true
		case *ast.IndexExpr:
			presized = true
		}
		if !presized || i >= len(as.Lhs) {
			continue
		}
		if lhs, ok := as.Lhs[i].(*ast.Ident); ok {
			if obj := defOrUse(info, lhs); obj != nil {
				sized[obj] = true
			}
		}
	}
}

// defOrUse resolves an identifier to its object whether it defines or
// uses it.
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// checkLoopAppend flags s = append(s, ...) where s is declared (unsized)
// inside an enclosing loop body: the temporary reallocates and regrows
// every iteration.
func checkLoopAppend(pass *analysis.Pass, as *ast.AssignStmt, declaredInLoop func(token.Pos) bool, sized map[types.Object]bool) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || !isBuiltin(pass.TypesInfo, id, "append") {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		lhs, ok := as.Lhs[i].(*ast.Ident)
		if !ok || lhs.Name == "_" {
			continue
		}
		obj := defOrUse(pass.TypesInfo, lhs)
		if obj == nil || sized[obj] {
			continue
		}
		if declaredInLoop(obj.Pos()) {
			pass.Reportf(as.Pos(),
				"append grows %s, a temporary declared in a loop body, every iteration; "+
					"hoist it and reuse with %s = %s[:0]", lhs.Name, lhs.Name, lhs.Name)
		}
	}
}
