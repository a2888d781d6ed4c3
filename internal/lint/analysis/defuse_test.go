package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheckFunc parses and typechecks src (a full file) and returns the
// first function's body plus the type info.
func typecheckFunc(t *testing.T, src string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return fn, info
		}
	}
	t.Fatal("no function found")
	return nil, nil
}

// objByName finds the variable object named name defined in the body.
func objByName(t *testing.T, body ast.Node, info *types.Info, name string) types.Object {
	t.Helper()
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && id.Name == name && info.Defs[id] != nil && obj == nil {
			obj = info.Defs[id]
		}
		return true
	})
	if obj == nil {
		t.Fatalf("variable %q not defined in body", name)
	}
	return obj
}

func TestTaintReachThroughAssignments(t *testing.T) {
	fn, info := typecheckFunc(t, `package p

func f(m map[string]int) string {
	var out string
	for k := range m {
		a := k + "x"
		b := a
		out = b
	}
	clean := "fixed"
	_ = clean
	return out
}
`)
	g := BuildTaint(fn.Body, info)
	k := objByName(t, fn.Body, info, "k")
	tainted := g.Reach([]types.Object{k})
	for _, want := range []string{"a", "b", "out"} {
		if !tainted[objByName(t, fn.Body, info, want)] {
			t.Errorf("%s not tainted, want tainted", want)
		}
	}
	if tainted[objByName(t, fn.Body, info, "clean")] {
		t.Error("clean tainted, want untainted")
	}
}

func TestTaintSortSanitizes(t *testing.T) {
	fn, info := typecheckFunc(t, `package p

import "sort"

func f(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := keys
	return ordered
}
`)
	g := BuildTaint(fn.Body, info)
	k := objByName(t, fn.Body, info, "k")
	tainted := g.Reach([]types.Object{k})
	keys := objByName(t, fn.Body, info, "keys")
	if !g.sanitized[keys] {
		t.Fatal("keys not marked sanitized by sort.Strings")
	}
	if tainted[keys] {
		t.Error("keys tainted despite sort.Strings")
	}
	if tainted[objByName(t, fn.Body, info, "ordered")] {
		t.Error("ordered tainted despite deriving from the sorted slice")
	}
}

func TestTaintSlicesSortSanitizes(t *testing.T) {
	fn, info := typecheckFunc(t, `package p

import "slices"

func f(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
`)
	g := BuildTaint(fn.Body, info)
	keys := objByName(t, fn.Body, info, "keys")
	if !g.sanitized[keys] {
		t.Fatal("keys not sanitized by slices.Sort")
	}
}

func TestTaintRangeValueAndTuple(t *testing.T) {
	fn, info := typecheckFunc(t, `package p

func f(m map[string]int) (int, bool) {
	total := 0
	for _, v := range m {
		total += v
	}
	got, ok := lookup(total)
	return got, ok
}

func lookup(x int) (int, bool) { return x, true }
`)
	g := BuildTaint(fn.Body, info)
	v := objByName(t, fn.Body, info, "v")
	tainted := g.Reach([]types.Object{v})
	if !tainted[objByName(t, fn.Body, info, "total")] {
		t.Error("total not tainted by range value")
	}
	// Tuple assignment: both results derive from the tainted argument.
	if !tainted[objByName(t, fn.Body, info, "got")] {
		t.Error("got not tainted through tuple assignment")
	}
	if !tainted[objByName(t, fn.Body, info, "ok")] {
		t.Error("ok not tainted through tuple assignment")
	}
}

func TestRootObjUnwrapping(t *testing.T) {
	fn, info := typecheckFunc(t, `package p

type s struct{ f int }

func f(k int) {
	var st s
	m := map[int]int{}
	p := &st
	var arr []int

	st.f = k
	m[0] = k
	p.f = k
	_ = arr
}
`)
	g := BuildTaint(fn.Body, info)
	// k is a parameter, so its defining ident is in the signature, not
	// the body — search the whole declaration.
	k := objByName(t, fn, info, "k")
	tainted := g.Reach([]types.Object{k})
	for _, want := range []string{"st", "m", "p"} {
		if !tainted[objByName(t, fn.Body, info, want)] {
			t.Errorf("%s not tainted through field/index/pointer write", want)
		}
	}
	if tainted[objByName(t, fn.Body, info, "arr")] {
		t.Error("arr tainted, want untainted")
	}
}
