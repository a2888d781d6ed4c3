package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the def-use half of the dataflow engine (the control-flow
// half lives in cfg.go). A TaintGraph records, for one function body,
// which variables derive their values from which others: every
// assignment, declaration, and range binding adds edges from the objects
// referenced on the right to the variable defined or written on the
// left. Reach then answers "which variables are (transitively) derived
// from these seeds" — the question maporder asks with map-range
// variables as seeds.
//
// The graph is deliberately flow-insensitive: one edge set for the whole
// body, closures included. That trades soundness for zero false
// positives from ordering subtleties, which is the right trade for a
// lint that gates CI.

// TaintGraph is the def-use graph of one function body.
type TaintGraph struct {
	// edges maps a source object to the objects whose values are derived
	// from it.
	edges map[types.Object][]types.Object
	// sanitized marks objects that pass through a recognized sanitizer
	// (sort.* / slices.Sort*) anywhere in the body: a sorted slice has a
	// deterministic order regardless of how it was filled, so taint does
	// not propagate through it.
	sanitized map[types.Object]bool
}

// BuildTaint constructs the def-use graph for body (typically a
// *ast.FuncDecl body or *ast.FuncLit body; nested closures are included
// in the same graph).
func BuildTaint(body ast.Node, info *types.Info) *TaintGraph {
	g := &TaintGraph{
		edges:     make(map[types.Object][]types.Object),
		sanitized: make(map[types.Object]bool),
	}
	if body == nil {
		return g
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			g.assign(n, info)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					dst := info.Defs[name]
					if dst == nil {
						continue
					}
					if len(vs.Values) == len(vs.Names) {
						g.addEdges(refObjs(vs.Values[i], info), dst)
					} else if len(vs.Values) > 0 {
						for _, v := range vs.Values {
							g.addEdges(refObjs(v, info), dst)
						}
					}
				}
			}
		case *ast.RangeStmt:
			srcs := refObjs(n.X, info)
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if lhs == nil {
					continue
				}
				if dst := RootObj(lhs, info); dst != nil {
					g.addEdges(srcs, dst)
				}
			}
		case *ast.CallExpr:
			if obj := sanitizedArg(n, info); obj != nil {
				g.sanitized[obj] = true
			}
		}
		return true
	})
	return g
}

func (g *TaintGraph) assign(n *ast.AssignStmt, info *types.Info) {
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			if dst := RootObj(lhs, info); dst != nil {
				g.addEdges(refObjs(n.Rhs[i], info), dst)
			}
		}
		return
	}
	// Tuple assignment (x, y := f()) and comma-ok forms: every LHS is
	// derived from everything on the right.
	var srcs []types.Object
	for _, rhs := range n.Rhs {
		srcs = append(srcs, refObjs(rhs, info)...)
	}
	for _, lhs := range n.Lhs {
		if dst := RootObj(lhs, info); dst != nil {
			g.addEdges(srcs, dst)
		}
	}
}

func (g *TaintGraph) addEdges(srcs []types.Object, dst types.Object) {
	for _, src := range srcs {
		if src == dst {
			continue
		}
		g.edges[src] = append(g.edges[src], dst)
	}
}

// Reach returns the set of objects transitively derived from seeds.
// Seeds themselves are included (unless sanitized); propagation stops at
// sanitized objects.
func (g *TaintGraph) Reach(seeds []types.Object) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	var work []types.Object
	for _, s := range seeds {
		if s != nil && !g.sanitized[s] && !tainted[s] {
			tainted[s] = true
			work = append(work, s)
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, next := range g.edges[obj] {
			if g.sanitized[next] || tainted[next] {
				continue
			}
			tainted[next] = true
			work = append(work, next)
		}
	}
	return tainted
}

// RootObj resolves an assignable expression to the variable that is
// actually written: s.f, m[k], *p, and (x) all root at the base
// identifier's object.
func RootObj(e ast.Expr, info *types.Info) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Defs[x]; obj != nil {
				return obj
			}
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// refObjs collects every variable object referenced anywhere in e.
// Function and type names are excluded: taint flows through values, and
// `f(x)` derives from x, not from f.
func refObjs(e ast.Expr, info *types.Info) []types.Object {
	var objs []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if _, isVar := obj.(*types.Var); isVar {
			objs = append(objs, obj)
		}
		return true
	})
	return objs
}

// sanitizedArg reports the object sanitized by call, if any: the first
// argument of sort.Strings / sort.Ints / sort.Slice / ... or
// slices.Sort* establishes a deterministic order for that slice.
func sanitizedArg(call *ast.CallExpr, info *types.Info) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	pkgName, ok := info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return nil
	}
	switch pkgName.Imported().Path() {
	case "sort":
		// Every sort.* entry point orders its first argument.
	case "slices":
		if !strings.HasPrefix(sel.Sel.Name, "Sort") {
			return nil
		}
	default:
		return nil
	}
	return RootObj(call.Args[0], info)
}
