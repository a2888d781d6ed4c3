package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names, as package.Name or package.Type.Method, the
// internal/ exports that may lack a non-test user, each with its reason.
var exportAllowlist = map[string]string{
	"join.NewOracle":           "reference oracle: the Alg. 2/3 recovery tests sample from it",
	"join.Oracle.EnumerateFOJ": "reference oracle: the exact full outer join the recovery tests merge",
	"tensor.Graph.MatMul":      "reference op: madeReference (internal/nn) builds MADE's full-width forward from it",
	"tensor.Graph.ReLU":        "reference op: madeReference (internal/nn) builds MADE's full-width forward from it",
}

// unusedExports returns "path: key" for every exported top-level
// declaration (func, method, type, var or const) in an internal/ file of
// srcs whose name no other file and no other line of its own file
// mentions; key is package.Name, or package.Type.Method for a method.
// srcs maps slash-separated, module-relative paths of non-test files to
// their source. The check is by name only; it needs no types. A method's
// declaration name and an interface's method list are not uses: otherwise
// two types with a method of the same name, or an interface listing it,
// would keep each other alive with no caller anywhere.
func unusedExports(srcs map[string][]byte) ([]string, error) {
	type decl struct {
		path, name, key string
		line            int
	}
	fset := token.NewFileSet()
	var decls []decl
	// uses[name] lists the file:line positions of every identifier.
	uses := map[string][]token.Position{}
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, srcs[path], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					declared[n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						declared[id] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name] = append(uses[n.Name], fset.Position(n.Pos()))
				}
			}
			return true
		})
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		pkg := f.Name.Name
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				decls = append(decls, decl{path, id.Name, key, fset.Position(id.Pos()).Line})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				add(d.Name, key)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pkg+"."+id.Name)
						}
					}
				}
			}
		}
	}
	var out []string
	for _, d := range decls {
		used := false
		for _, u := range uses[d.name] {
			if u.Filename != d.path || u.Line != d.line {
				used = true
				break
			}
		}
		if !used {
			out = append(out, d.path+": "+d.key)
		}
	}
	return out, nil
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// moduleSources reads every non-test .go file of the module rooted at
// root, skipping testdata and hidden directories.
func moduleSources(root string) (map[string][]byte, error) {
	srcs := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		srcs[filepath.ToSlash(rel)] = b
		return nil
	})
	return srcs, err
}

// TestInternalExportsHaveNonTestUsers keeps the internal/ API free of
// exports that only tests call: such a name is either given a production
// user, deleted with the tests whose only subject it is, or allowlisted
// above with a reason.
func TestInternalExportsHaveNonTestUsers(t *testing.T) {
	srcs, err := moduleSources(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srcs["internal/lint/lint.go"]; !ok {
		t.Fatal("module sources not found from the package directory")
	}
	unused, err := unusedExports(srcs)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, u := range unused {
		key := u[strings.LastIndex(u, " ")+1:]
		if _, ok := exportAllowlist[key]; ok {
			allowed[key] = true
			continue
		}
		t.Errorf("%s has no non-test user", u)
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlisted %s is gone or has a non-test user; drop it from exportAllowlist", key)
		}
	}
}

func TestUnusedExports(t *testing.T) {
	srcs := map[string][]byte{
		"internal/a/a.go": []byte(`package a

// Used is called from cmd/x; Unused and unusedHelper are not.
func Used() int { return Limit }

func Unused() {}

func unusedHelper() {}

const Limit = 3

type T struct{}

func (T) Self() T { return T{} }

// Size is declared twice and listed by I, but nothing calls it.
type I interface{ Size() int }

type U struct{}

func (U) Size() int { return 1 }

type V struct{}

func (V) Size() int { return 2 }

var _, _ I = U{}, V{}
`),
		"cmd/x/main.go": []byte(`package main

import "sam/internal/a"

func main() { _ = a.Used() }
`),
	}
	got, err := unusedExports(srcs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a/a.go: a.Unused", "internal/a/a.go: a.T.Self",
		"internal/a/a.go: a.U.Size", "internal/a/a.go: a.V.Size"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unusedExports = %q, want %q", got, want)
	}
}
