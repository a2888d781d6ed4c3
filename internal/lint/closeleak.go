package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sam/internal/lint/analysis"
)

// CloseLeak enforces the resource lifecycle of the streaming pipeline's
// os files: an os.File opened in a function must reach Close on every
// exit path, or the fd leaks. The creation set is deliberately narrow —
// os.Create/Open/OpenFile/CreateTemp — and ownership transfer is respected
// aggressively: a handle that is returned, stored, passed to another call,
// captured by a closure, or address-taken is someone else's to close, so
// only clearly-owned locals are checked.
//
// Path coverage runs on the CFG from the creation statement: a deferred
// Close covers everything, otherwise analysis.UncoveredExit must find no
// exit that skips both the Close call and the creation's own error-guard
// return (on the error path there is nothing to close). The suggested
// fix inserts `defer x.Close()` after the error check.
var CloseLeak = &analysis.Analyzer{
	Name: "closeleak",
	Doc: "require os files opened in a function to be closed on every " +
		"path or handed off",
	Run: runCloseLeak,
}

func runCloseLeak(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkCloseScope(pass, body)
		})
	}
	return nil
}

// closeable tracks one owned handle from its creation.
type closeable struct {
	obj    types.Object
	name   string
	create *ast.AssignStmt
	errObj types.Object // the err bound by the same creation, if any
}

func checkCloseScope(pass *analysis.Pass, body *ast.BlockStmt) {
	var handles []*closeable
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isCloseableCreation(pass.TypesInfo, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		h := &closeable{obj: pass.TypesInfo.Defs[id], name: id.Name, create: as}
		if h.obj == nil {
			return true
		}
		if len(as.Lhs) == 2 {
			if errID, ok := as.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
				h.errObj = pass.TypesInfo.Defs[errID]
			}
		}
		handles = append(handles, h)
		return true
	})
	if len(handles) == 0 {
		return
	}

	guards := errGuards(body)
	var cfg *analysis.CFG
	for _, h := range handles {
		if handleEscapes(pass, body, h) {
			continue
		}
		if deferredClose(pass, body, h) {
			continue
		}
		if cfg == nil {
			cfg = analysis.BuildCFG(body)
		}
		covers := func(n ast.Node) bool {
			if isCloseStmt(pass, n, h.obj) {
				return true
			}
			// A return inside the creation's own `if err != nil` guard:
			// the handle is invalid on that path, nothing to close.
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || h.errObj == nil {
				return false
			}
			guard := guards[ret]
			return guard != nil && condMentions(pass.TypesInfo, guard.Cond, h.errObj)
		}
		if exit, uncovered := cfg.UncoveredExit(h.create, covers); uncovered {
			pass.Report(analysis.Diagnostic{
				Pos: exit,
				Message: fmt.Sprintf(
					"handle %s (opened at line %d) is not closed on this path; defer %s.Close() after the error check",
					h.name, pass.Fset.Position(h.create.Pos()).Line, h.name),
				SuggestedFixes: []analysis.SuggestedFix{deferCloseFix(pass, body, h)},
			})
		}
	}
}

// errGuards maps each return statement in the scope to the innermost if
// statement whose then-branch contains it, for error-guard recognition.
func errGuards(body *ast.BlockStmt) map[*ast.ReturnStmt]*ast.IfStmt {
	guards := make(map[*ast.ReturnStmt]*ast.IfStmt)
	walkParents(body, func(n ast.Node, parents []ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for i := len(parents) - 1; i >= 0; i-- {
			if ifs, ok := parents[i].(*ast.IfStmt); ok && containsPos(ifs.Body, ret.Pos()) {
				guards[ret] = ifs
				return
			}
		}
	})
	return guards
}

// isCloseableCreation recognizes the narrow creation set: the os file
// opens.
func isCloseableCreation(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !isPkgLevel(fn) {
		return false
	}
	switch pkgPath(fn) {
	case "os":
		switch fn.Name() {
		case "Create", "Open", "OpenFile", "CreateTemp":
			return true
		}
	}
	return false
}

// handleEscapes reports whether ownership of h leaves this function:
// returned, stored, passed as an argument, captured by a closure, or
// address-taken. Method calls on the handle itself (h.Write, h.Close)
// are normal use, not escapes.
func handleEscapes(pass *analysis.Pass, body *ast.BlockStmt, h *closeable) bool {
	escaped := false
	walkParents(body, func(n ast.Node, parents []ast.Node) {
		if escaped {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || defOrUse(pass.TypesInfo, id) != h.obj {
			return
		}
		if len(parents) == 0 {
			return
		}
		// The creation's own LHS is not a use.
		if parents[len(parents)-1] == h.create {
			return
		}
		for _, p := range parents {
			if lit, ok := p.(*ast.FuncLit); ok && !containsPos(lit, h.create.Pos()) {
				escaped = true // captured by a closure defined after creation
				return
			}
		}
		switch p := parents[len(parents)-1].(type) {
		case *ast.SelectorExpr:
			return // receiver of a method call or field read: normal use
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == n && !isBorrowingCall(pass.TypesInfo, p) {
					escaped = true
					return
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
			escaped = true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				escaped = true
			}
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == n {
					escaped = true // aliased into another variable
					return
				}
			}
		}
	})
	return escaped
}

// isBorrowingCall recognizes calls that use a handle for the duration of
// the call without taking ownership — fmt.Fprint* and the io copy/write
// helpers. Passing a handle to anything else (a wrapper constructor, a
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

// deferredClose reports whether a defer in this scope closes h: `defer
// h.Close()` or a deferred closure containing h.Close().
func deferredClose(pass *analysis.Pass, body *ast.BlockStmt, h *closeable) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isCloseCall(pass, d.Call, h.obj) {
			found = true
			return false
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isCloseCall(pass, call, h.obj) {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

// isCloseStmt reports whether a CFG node is `h.Close()` at statement
// level (bare or with its error consumed).
func isCloseStmt(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(n.X).(*ast.CallExpr)
		return ok && isCloseCall(pass, call, obj)
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isCloseCall(pass, call, obj) {
				return true
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isCloseCall(pass, call, obj) {
				return true
			}
		}
	}
	return false
}

func isCloseCall(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && defOrUse(pass.TypesInfo, id) == obj
}

func condMentions(info *types.Info, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && defOrUse(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// deferCloseFix inserts `defer h.Close()` after the creation's error
// guard (or directly after the creation when there is none), matching
// indentation.
func deferCloseFix(pass *analysis.Pass, body *ast.BlockStmt, h *closeable) analysis.SuggestedFix {
	after := ast.Node(h.create)
	// If the statement immediately following the creation in the same
	// block is the err-guard if, insert after it instead.
	walkParents(body, func(n ast.Node, parents []ast.Node) {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return
		}
		for i, s := range blk.List {
			if s != ast.Stmt(h.create) || i+1 >= len(blk.List) {
				continue
			}
			if ifs, ok := blk.List[i+1].(*ast.IfStmt); ok && h.errObj != nil &&
				condMentions(pass.TypesInfo, ifs.Cond, h.errObj) {
				after = ifs
			}
		}
	})
	pos := pass.Fset.Position(h.create.Pos())
	indent := lineIndent(pass.Sources[pos.Filename], pos)
	return analysis.SuggestedFix{
		Message: "defer " + h.name + ".Close() once the handle is known valid",
		TextEdits: []analysis.TextEdit{{
			Pos:     after.End(),
			End:     after.End(),
			NewText: []byte("\n" + indent + "defer " + h.name + ".Close()"),
		}},
	}
}
