package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"sam/internal/lint/analysis"
)

// SpanEnd enforces the span-lifecycle contract of the obs telemetry layer:
// a phase span started with Child must be ended on every path out of the
// function, or ownership must be handed off. A span is used only through
// its methods, so any other use — returned, stored, passed along,
// compared, taken as a method value, captured by a closure — counts as a
// hand-off and is not analyzed further. Reassigning the variable is not a
// hand-off: the span it held must still be ended. The suggested fix
// inserts `defer sp.End()` after the start; End is idempotent, so the fix
// is safe next to manual Ends.
var SpanEnd = &analysis.Analyzer{
	Name: "spanend",
	Doc: "require obs spans started in a function to be ended on every path " +
		"(defer sp.End() or covering manual End calls)",
	Run: (&lifecycle{
		create:      spanStart,
		release:     "End",
		methodsOnly: true,
		never: func(name string, _ int) string {
			return "obs span " + name + " is never ended; add defer " + name + ".End() after starting it"
		},
		uncovered: func(name string, line int) string {
			return fmt.Sprintf("obs span %s (started at line %d) is not ended on this path; End it before the exit or defer %s.End()",
				name, line, name)
		},
	}).run,
}

// CloseLeak enforces the resource lifecycle of the streaming pipeline's
// os files: an os.File opened in a function must reach Close on every
// exit path, or the fd leaks. The creation set is deliberately narrow —
// os.Create/Open/OpenFile/CreateTemp — and ownership transfer is
// respected: a handle that is returned, stored, sent, aliased,
// address-taken, captured by a closure, or passed to a call that does not
// merely borrow it is someone else's to close. Comparisons, method values
// and reassignments are ordinary use. The creation's own error-guard
// return is exempt (on the error path there is nothing to close), and the
// suggested fix inserts `defer f.Close()` after that guard.
var CloseLeak = &analysis.Analyzer{
	Name: "closeleak",
	Doc: "require os files opened in a function to be closed on every " +
		"path or handed off",
	Run: (&lifecycle{
		create:  fileOpen,
		release: "Close",
		borrows: isBorrowingCall,
		uncovered: func(name string, line int) string {
			return fmt.Sprintf("handle %s (opened at line %d) is not closed on this path; defer %s.Close() after the error check",
				name, line, name)
		},
	}).run,
}

// GoLeak enforces the goroutine-completion contract: a goroutine launched
// with a function literal must signal completion — WaitGroup.Done,
// close(ch), or a channel send — on every exit path, or the waiter on the
// other side hangs. The blessed shapes are `defer wg.Done()`,
// `defer close(done)`, and a send on every path (`errc <- err` after
// the work). Goroutines that never exit (event loops) are fine
// by construction, and goroutines launched on named functions are
// skipped: the analysis is intraprocedural. There is no fix: which
// WaitGroup or channel to signal is not mechanical.
var GoLeak = &analysis.Analyzer{
	Name: "goleak",
	Doc: "require goroutines to signal completion (WaitGroup.Done, " +
		"close, or channel send) on every exit path",
	Run: (&lifecycle{
		create: goLiteral,
		signal: isCompletionSignal,
		uncovered: func(string, int) string {
			return "goroutine can exit without signaling completion (no WaitGroup.Done, close, or channel send on some path); a waiter can hang"
		},
	}).run,
}

// lifecycle is the every-path engine behind spanend, closeleak and goleak.
// In each function body it finds the creations of tracked obligations and
// requires each to be released on every exit: by a deferred release (a
// direct `defer x.R()`, or a deferred closure containing the release), or
// by releases covering every exit of the body's CFG
// (analysis.UncoveredExit; paths that leave by panicking are exempt). A
// value whose ownership visibly moves elsewhere is not checked. The
// descriptor fields hold what differs between the three checks.
type lifecycle struct {
	// create recognizes the statement that starts an obligation.
	create func(info *types.Info, n ast.Node) *obligation
	// release is the method that releases a tracked value ("End",
	// "Close"); the suggested fix defers it. A goroutine has no value:
	// signal recognizes its completion signals (a call or a send).
	release string
	signal  func(info *types.Info, n ast.Node) bool
	// methodsOnly makes every use of a value other than a method call or
	// a reassignment a hand-off. Otherwise a use hands it off only when
	// the value is returned, stored, sent, aliased, address-taken,
	// captured by a closure, or passed to a call outside the borrows set.
	methodsOnly bool
	borrows     func(info *types.Info, call *ast.CallExpr) bool
	// never, when set, is reported at the creation of a value no
	// statement releases; uncovered at the first exit that skips the
	// release (at the go statement, for a goroutine).
	never, uncovered func(name string, line int) string
}

// obligation is one tracked creation.
type obligation struct {
	create ast.Stmt
	obj    types.Object // the tracked value; nil for a goroutine
	errObj types.Object // the err the creation binds beside it, if any
	// lit is a goroutine's literal: its body is checked from the entry.
	lit *ast.FuncLit
}

func (lc *lifecycle) run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
			inspectShallow(body, func(n ast.Node) bool {
				if ob := lc.create(pass.TypesInfo, n); ob != nil {
					lc.check(pass, body, ob)
				}
				return true
			})
		})
	}
	return nil
}

func (lc *lifecycle) check(pass *analysis.Pass, scope *ast.BlockStmt, ob *obligation) {
	info := pass.TypesInfo
	released, handedOff := false, false
	if ob.obj != nil {
		walkParents(scope, func(n ast.Node, parents []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || defOrUse(info, id) != ob.obj || parents[len(parents)-1] == ob.create {
				return
			}
			if call, ok := methodCallOf(id, parents); ok && !insideFuncLit(parents) {
				released = released || lc.releaseCall(info, call, ob.obj)
			} else if lc.handsOff(info, id, parents) {
				handedOff = true
			}
		})
		if handedOff {
			return
		}
	}

	body, from, at := scope, ast.Node(ob.create), token.NoPos
	if ob.lit != nil {
		body, from, at = ob.lit.Body, nil, ob.create.Pos()
	}
	cfg := analysis.BuildCFG(body)
	for _, d := range cfg.Defers {
		if lc.releaseCall(info, d.Call, ob.obj) {
			return
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && lc.releasedIn(info, lit.Body, ob.obj) {
			return
		}
	}

	if !released && lc.never != nil {
		lc.report(pass, scope, ob, ob.create.Pos(), lc.never)
		return
	}
	guarded := guardReturns(info, scope, ob.errObj)
	covers := func(n ast.Node) bool { return guarded[n] || lc.releases(info, n, ob.obj) }
	if exit, uncovered := cfg.UncoveredExit(from, covers); uncovered {
		if at == token.NoPos {
			at = exit
		}
		lc.report(pass, scope, ob, at, lc.uncovered)
	}
}

// report files one finding on ob; a tracked value's carries the defer fix.
func (lc *lifecycle) report(pass *analysis.Pass, scope *ast.BlockStmt, ob *obligation, pos token.Pos, msg func(name string, line int) string) {
	d := analysis.Diagnostic{Pos: pos}
	name := ""
	if ob.obj != nil {
		name = ob.obj.Name()
		d.SuggestedFixes = []analysis.SuggestedFix{lc.deferFix(pass, scope, ob)}
	}
	d.Message = msg(name, pass.Fset.Position(ob.create.Pos()).Line)
	pass.Report(d)
}

// handsOff reports whether one use of the tracked value (other than a
// method call on it outside closures) moves its ownership elsewhere.
func (lc *lifecycle) handsOff(info *types.Info, id *ast.Ident, parents []ast.Node) bool {
	if insideFuncLit(parents) {
		return true
	}
	parent := parents[len(parents)-1]
	if as, ok := parent.(*ast.AssignStmt); ok && slices.Contains(as.Lhs, ast.Expr(id)) {
		return false // reassigning the variable leaves the old value owned here
	}
	if lc.methodsOnly {
		return true
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		return !lc.borrows(info, p)
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
		return true
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.AssignStmt:
		return slices.Contains(p.Rhs, ast.Expr(id))
	}
	return false
}

// releaseCall reports whether call releases obj (or, for a goroutine,
// signals completion).
func (lc *lifecycle) releaseCall(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	if lc.signal != nil {
		return lc.signal(info, call)
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != lc.release {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && defOrUse(info, id) == obj
}

// releases reports whether statement n releases obj: a release call as a
// statement, assigned or returned, or a send that signals completion.
func (lc *lifecycle) releases(info *types.Info, n ast.Node, obj types.Object) bool {
	var exprs []ast.Expr
	switch n := n.(type) {
	case *ast.ExprStmt:
		exprs = []ast.Expr{n.X}
	case *ast.AssignStmt:
		exprs = n.Rhs
	case *ast.ReturnStmt:
		exprs = n.Results
	case *ast.SendStmt:
		return lc.signal != nil && lc.signal(info, n)
	}
	for _, e := range exprs {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && lc.releaseCall(info, call, obj) {
			return true
		}
	}
	return false
}

// releasedIn reports whether a statement in body (a deferred closure's)
// releases obj, without descending into further nested literals.
func (lc *lifecycle) releasedIn(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		found = found || lc.releases(info, n, obj)
		return !found
	})
	return found
}

// deferFix inserts `defer x.R()` after the creation, or after the
// creation's `if err != nil` guard when that follows it directly.
func (lc *lifecycle) deferFix(pass *analysis.Pass, scope *ast.BlockStmt, ob *obligation) analysis.SuggestedFix {
	after := ast.Node(ob.create)
	if ifs, ok := nextStmt(scope, ob.create).(*ast.IfStmt); ok && ob.errObj != nil && mentions(pass.TypesInfo, ifs.Cond, ob.errObj) {
		after = ifs
	}
	pos := pass.Fset.Position(ob.create.Pos())
	stmt := "defer " + ob.obj.Name() + "." + lc.release + "()"
	return analysis.SuggestedFix{
		Message: "insert " + stmt,
		TextEdits: []analysis.TextEdit{{
			Pos:     after.End(),
			End:     after.End(),
			NewText: []byte("\n" + lineIndent(pass.Sources[pos.Filename], pos) + stmt),
		}},
	}
}

// definedByCall matches `x[, ...] := call(...)` and returns the statement,
// the call and the object x defines; obj is nil for anything else.
func definedByCall(info *types.Info, n ast.Node) (as *ast.AssignStmt, call *ast.CallExpr, obj types.Object) {
	as, ok := n.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
		return nil, nil, nil
	}
	call, ok = ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, nil, nil
	}
	return as, call, definedObj(info, as.Lhs[0])
}

// definedObj returns the object a non-blank identifier on the left of :=
// defines.
func definedObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		return info.Defs[id]
	}
	return nil
}

// spanStart recognizes `sp := parent.Child(...)` typed *obs.Span.
func spanStart(info *types.Info, n ast.Node) *obligation {
	as, call, obj := definedByCall(info, n)
	if obj == nil || len(as.Lhs) != 1 || !isNamedType(obj.Type(), obsPath, "Span") {
		return nil
	}
	if fn := calleeFunc(info, call); fn == nil || fn.Name() != "Child" || pkgPath(fn) != obsPath {
		return nil
	}
	return &obligation{create: as, obj: obj}
}

// fileOpen recognizes `f[, err] := os.Create|Open|OpenFile|CreateTemp(...)`.
func fileOpen(info *types.Info, n ast.Node) *obligation {
	as, call, obj := definedByCall(info, n)
	if obj == nil {
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil || !isPkgLevel(fn) || pkgPath(fn) != "os" {
		return nil
	}
	switch fn.Name() {
	case "Create", "Open", "OpenFile", "CreateTemp":
	default:
		return nil
	}
	ob := &obligation{create: as, obj: obj}
	if len(as.Lhs) == 2 {
		ob.errObj = definedObj(info, as.Lhs[1])
	}
	return ob
}

// goLiteral recognizes `go func() { ... }()`.
func goLiteral(_ *types.Info, n ast.Node) *obligation {
	if g, ok := n.(*ast.GoStmt); ok {
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			return &obligation{create: g, lit: lit}
		}
	}
	return nil
}

// isCompletionSignal recognizes a goroutine's completion signals: a
// channel send, close(ch), or (*sync.WaitGroup).Done.
func isCompletionSignal(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			// The close builtin, not a shadowing declaration.
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
				return true
			}
		}
		fn := calleeFunc(info, n)
		return fn != nil && fn.Name() == "Done" && strings.HasPrefix(fn.FullName(), "(*sync.WaitGroup).")
	}
	return false
}

// isBorrowingCall recognizes calls that use a file for the duration of
// the call without taking ownership — fmt.Fprint* and the io copy/write
// helpers. Passing a file to anything else (a wrapper constructor, a
// goroutine body, an unknown function) transfers the Close obligation.
func isBorrowingCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !isPkgLevel(fn) {
		return false
	}
	switch pkgPath(fn) {
	case "fmt":
		return strings.HasPrefix(fn.Name(), "Fprint")
	case "io":
		switch fn.Name() {
		case "Copy", "CopyN", "CopyBuffer", "WriteString", "ReadAll", "ReadFull":
			return true
		}
	}
	return false
}

// guardReturns marks the returns whose innermost enclosing if tests err:
// on that path the creation failed and there is nothing to release.
func guardReturns(info *types.Info, body *ast.BlockStmt, err types.Object) map[ast.Node]bool {
	if err == nil {
		return nil
	}
	guarded := map[ast.Node]bool{}
	// Pre-order: an inner if overwrites the verdict of the ifs around it.
	inspectShallow(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			tests := mentions(info, ifs.Cond, err)
			inspectShallow(ifs.Body, func(m ast.Node) bool {
				if ret, ok := m.(*ast.ReturnStmt); ok {
					guarded[ret] = tests
				}
				return true
			})
		}
		return true
	})
	return guarded
}

// nextStmt returns the statement right after s in its statement list, or
// nil.
func nextStmt(scope *ast.BlockStmt, s ast.Stmt) ast.Stmt {
	var next ast.Stmt
	inspectShallow(scope, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		if i := slices.Index(list, s); i >= 0 && i+1 < len(list) {
			next = list[i+1]
		}
		return next == nil
	})
	return next
}

// mentions reports whether expression e refers to obj.
func mentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && defOrUse(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// methodCallOf reports whether id is the receiver of a method call
// (parents end with [..., CallExpr, SelectorExpr]) and returns the call.
func methodCallOf(id *ast.Ident, parents []ast.Node) (*ast.CallExpr, bool) {
	if len(parents) < 2 {
		return nil, false
	}
	sel, ok := parents[len(parents)-1].(*ast.SelectorExpr)
	if !ok || sel.X != id {
		return nil, false
	}
	call, ok := parents[len(parents)-2].(*ast.CallExpr)
	return call, ok && call.Fun == sel
}
