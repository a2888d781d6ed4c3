package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"
)

// parseBody wraps body in a single-function file and returns the parsed
// block. CFG construction is purely syntactic, so no typechecking is
// needed and the bodies may reference undeclared names.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// callNamed matches an ExprStmt calling the bare identifier name — the
// marker convention the table tests use (cover(), start()).
func callNamed(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
}

// findStmt returns the first node in the body matching pred, or nil.
func findStmt(body *ast.BlockStmt, pred func(ast.Node) bool) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n != nil && pred(n) {
			found = n
			return false
		}
		return true
	})
	return found
}

// TestUncoveredExit drives the every-path question through each control
// construct the builder lowers. cover() marks a covering node; start()
// optionally marks where the walk begins; wantUncovered says whether an
// exit escapes without passing cover().
func TestUncoveredExit(t *testing.T) {
	cases := []struct {
		name          string
		body          string
		wantUncovered bool
	}{
		{"straight line", `x := 1; _ = x; cover()`, false},
		{"no cover at all", `x := 1; _ = x`, true},
		{"if then only", `if c { cover() }`, true},
		{"if both branches", `if c { cover() } else { cover() }`, false},
		{"if then returns early", `if c { return }; cover()`, true},
		{"if then covered return", `if c { cover(); return }; cover()`, false},
		{"cover after if join", `if c { a() } else { b() }; cover()`, false},
		{"for body only", `for i := 0; i < n; i++ { cover() }`, true},
		{"for then cover", `for i := 0; i < n; i++ { a() }; cover()`, false},
		{"infinite for never exits", `for { a() }`, false},
		{"infinite for with break", `for { if c { break } }`, true},
		{"infinite for break after cover", `for { cover(); if c { break } }`, false},
		{"continue skips cover", `for i := 0; i < n; i++ { if c { continue }; cover() }`, true},
		{"range body only", `for _, v := range xs { _ = v; cover() }`, true},
		{"range then cover", `for _, v := range xs { _ = v }; cover()`, false},
		{"range break before cover", `for range xs { break }; cover()`, false},
		{"switch no default", `switch x { case 1: cover(); case 2: cover() }`, true},
		{"switch with default", `switch x { case 1: cover(); default: cover() }`, false},
		{"switch default misses", `switch x { case 1: cover(); default: a() }`, true},
		{"switch break", `switch x { default: if c { break }; cover() }`, true},
		{"fallthrough reaches cover", `switch x { case 1: fallthrough; default: cover() }`, false},
		{"fallthrough from uncovered case", `switch x { case 1: a(); case 2: cover(); default: cover() }`, true},
		{"type switch with default", `switch x.(type) { case int: cover(); default: cover() }`, false},
		{"type switch no default", `switch x.(type) { case int: cover() }`, true},
		{"select all comms covered", `select { case <-ch: cover(); case ch2 <- v: cover() }`, false},
		{"select one comm misses", `select { case <-ch: cover(); case ch2 <- v: a() }`, true},
		{"goto skips cover", `if c { goto done }; cover(); done: return`, true},
		{"goto after cover", `cover(); if c { goto done }; a(); done: return`, false},
		{"goto backward loop", "i := 0\nloop:\nif i < n { i++; goto loop }\ncover()", false},
		{"labeled break covered", "outer:\nfor { for { if c { break outer }; a() } }\ncover()", false},
		{"labeled continue skips cover", "outer:\nfor i := 0; i < n; i++ { for { if c { continue outer }; cover() } }", true},
		{"panic path needs no cover", `if c { panic("boom") }; cover()`, false},
		{"only panic exits", `panic("always")`, false},
		{"return both covered", `if c { cover(); return }; cover(); return`, false},
		{"nested if partial", `if a1 { if b1 { cover() } else { cover() } } else { if b2 { cover() } }`, true},
		{"start marker scopes walk", `cover(); start(); return`, true},
		{"start before cover", `start(); cover(); return`, false},
		{"start inside loop", `for { start(); if c { break } }; cover()`, false},
		{"dead code after return ignored", `cover(); return; a()`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := parseBody(t, tc.body)
			cfg := BuildCFG(body)
			var from ast.Node
			if strings.Contains(tc.body, "start()") {
				from = findStmt(body, callNamed("start"))
				if from == nil {
					t.Fatal("start() marker not found")
				}
			}
			pos, uncovered := cfg.UncoveredExit(from, callNamed("cover"))
			if uncovered != tc.wantUncovered {
				t.Fatalf("UncoveredExit = %v, want %v\ncfg:\n%s", uncovered, tc.wantUncovered, cfg)
			}
			if uncovered && !pos.IsValid() {
				t.Fatalf("uncovered exit reported with invalid position")
			}
		})
	}
}

// TestUncoveredExitPosition pins the reported position: an explicit
// return reports the return statement, the implicit return reports the
// closing brace, and multiple uncovered exits report the earliest.
func TestUncoveredExitPosition(t *testing.T) {
	fset := token.NewFileSet()
	src := "package p\n\nfunc f() {\n\tif c {\n\t\treturn\n\t}\n\ta()\n}\n"
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ast.FuncDecl).Body
	cfg := BuildCFG(body)

	pos, uncovered := cfg.UncoveredExit(nil, callNamed("cover"))
	if !uncovered {
		t.Fatal("want uncovered exit")
	}
	// Both exits are uncovered; the explicit return on line 5 precedes
	// the closing brace on line 8.
	if got := fset.Position(pos).Line; got != 5 {
		t.Fatalf("uncovered exit at line %d, want 5 (the return)", got)
	}

	// Cover the return path: the implicit return at the brace remains.
	pos, uncovered = cfg.UncoveredExit(nil, func(n ast.Node) bool {
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
	if !uncovered {
		t.Fatal("want uncovered implicit return")
	}
	if got := fset.Position(pos).Line; got != 8 {
		t.Fatalf("uncovered exit at line %d, want 8 (closing brace)", got)
	}
}

// TestCFGDefers checks defer collection: every defer in the body lands in
// Defers, in source order, including defers inside branches.
func TestCFGDefers(t *testing.T) {
	body := parseBody(t, `
	defer a()
	if c {
		defer b()
	}
	for {
		defer d()
		break
	}
`)
	cfg := BuildCFG(body)
	if len(cfg.Defers) != 3 {
		t.Fatalf("got %d defers, want 3\ncfg:\n%s", len(cfg.Defers), cfg)
	}
	for i := 1; i < len(cfg.Defers); i++ {
		if cfg.Defers[i].Pos() <= cfg.Defers[i-1].Pos() {
			t.Fatalf("defers out of source order")
		}
	}
}

// reachable returns the set of c's blocks reachable from the entry.
func reachable(c *CFG) map[*Block]bool {
	seen := map[*Block]bool{c.Entry: true}
	work := []*Block{c.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// TestCFGReachableDeadCode checks that statements after a terminator land
// in a block that is not reachable from the entry.
func TestCFGReachableDeadCode(t *testing.T) {
	body := parseBody(t, `
	a()
	return
	b()
`)
	cfg := BuildCFG(body)
	reach := reachable(cfg)
	dead := findStmt(cfg.Body, callNamed("b"))
	if dead == nil {
		t.Fatal("b() not found")
	}
	blk, _ := cfg.find(dead)
	if blk == nil {
		t.Fatal("b() not placed in any block")
	}
	if reach[blk] {
		t.Fatalf("dead block %d:%s is reachable\ncfg:\n%s", blk.Index, blk.Kind, cfg)
	}
	if !reach[cfg.Exit] {
		t.Fatal("exit unreachable in function with a return")
	}
}

// stmtGen emits random function bodies from a small grammar, for the
// invariant test below. It is deterministic per seed.
type stmtGen struct {
	rng   *rand.Rand
	depth int
	loops int // nesting depth of enclosing loops (break/continue legal)
	sw    int // nesting depth of enclosing switches (break legal)
	n     int // statement counter for unique names
}

func (g *stmtGen) block(sb *strings.Builder, indent string) {
	stmts := 1 + g.rng.Intn(4)
	for i := 0; i < stmts; i++ {
		g.stmt(sb, indent)
	}
}

func (g *stmtGen) stmt(sb *strings.Builder, indent string) {
	g.n++
	if g.depth >= 4 {
		fmt.Fprintf(sb, "%scall%d()\n", indent, g.n)
		return
	}
	choice := g.rng.Intn(12)
	switch {
	case choice < 3: // plain call
		fmt.Fprintf(sb, "%scall%d()\n", indent, g.n)
	case choice == 3: // assignment
		fmt.Fprintf(sb, "%sv%d := call%d()\n%s_ = v%d\n", indent, g.n, g.n, indent, g.n)
	case choice == 4: // defer
		fmt.Fprintf(sb, "%sdefer call%d()\n", indent, g.n)
	case choice == 5: // if
		fmt.Fprintf(sb, "%sif cond%d {\n", indent, g.n)
		g.nested(sb, indent)
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(sb, "%s} else {\n", indent)
			g.nested(sb, indent)
		}
		fmt.Fprintf(sb, "%s}\n", indent)
	case choice == 6: // for
		fmt.Fprintf(sb, "%sfor i%d := 0; i%d < 3; i%d++ {\n", indent, g.n, g.n, g.n)
		g.loops++
		g.nested(sb, indent)
		g.loops--
		fmt.Fprintf(sb, "%s}\n", indent)
	case choice == 7: // range
		fmt.Fprintf(sb, "%sfor range xs {\n", indent)
		g.loops++
		g.nested(sb, indent)
		g.loops--
		fmt.Fprintf(sb, "%s}\n", indent)
	case choice == 8: // switch
		def := g.rng.Intn(2) == 0
		fmt.Fprintf(sb, "%sswitch x%d {\n", indent, g.n)
		cases := 1 + g.rng.Intn(2)
		g.sw++
		for c := 0; c < cases; c++ {
			fmt.Fprintf(sb, "%scase %d:\n", indent, c)
			g.nested(sb, indent)
		}
		if def {
			fmt.Fprintf(sb, "%sdefault:\n", indent)
			g.nested(sb, indent)
		}
		g.sw--
		fmt.Fprintf(sb, "%s}\n", indent)
	case choice == 9 && g.loops > 0: // break / continue
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(sb, "%sbreak\n", indent)
		} else {
			fmt.Fprintf(sb, "%scontinue\n", indent)
		}
	case choice == 10: // return
		fmt.Fprintf(sb, "%sreturn\n", indent)
	default:
		fmt.Fprintf(sb, "%scall%d()\n", indent, g.n)
	}
}

func (g *stmtGen) nested(sb *strings.Builder, indent string) {
	g.depth++
	g.block(sb, indent+"\t")
	g.depth--
}

// TestCFGNodePlacementInvariant is the fuzz-ish structural test: across
// randomly generated bodies, every simple statement must land in exactly
// one block (reachable or flagged dead — never dropped), every edge must
// point at a registered block, and every reachable non-exit block must
// lead somewhere.
func TestCFGNodePlacementInvariant(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		g := &stmtGen{rng: rand.New(rand.NewSource(seed))}
		var sb strings.Builder
		g.block(&sb, "\t")
		bodySrc := sb.String()

		body := parseBody(t, bodySrc)
		cfg := BuildCFG(body)

		// Every simple statement appears in exactly one block.
		placed := make(map[ast.Node]int)
		for _, blk := range cfg.Blocks {
			for _, n := range blk.Nodes {
				placed[n]++
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ExprStmt, *ast.AssignStmt, *ast.DeferStmt, *ast.ReturnStmt, *ast.IncDecStmt:
				if placed[n] != 1 {
					t.Fatalf("seed %d: %T at %v placed %d times, want 1\nbody:\n%s\ncfg:\n%s",
						seed, n, n.Pos(), placed[n], bodySrc, cfg)
				}
			}
			return true
		})

		// Edges point at registered blocks; reachable non-exit blocks
		// don't dead-end.
		known := make(map[*Block]bool, len(cfg.Blocks))
		for _, blk := range cfg.Blocks {
			known[blk] = true
		}
		reach := reachable(cfg)
		for _, blk := range cfg.Blocks {
			for _, s := range blk.Succs {
				if !known[s] {
					t.Fatalf("seed %d: block %d has edge to unregistered block", seed, blk.Index)
				}
			}
			if reach[blk] && blk != cfg.Exit && len(blk.Succs) == 0 {
				t.Fatalf("seed %d: reachable block %d:%s dead-ends\nbody:\n%s\ncfg:\n%s",
					seed, blk.Index, blk.Kind, bodySrc, cfg)
			}
		}

		// Exit never has successors; every defer in the source was
		// collected.
		if len(cfg.Exit.Succs) != 0 {
			t.Fatalf("seed %d: exit block has successors", seed)
		}
		wantDefers := strings.Count(bodySrc, "defer ")
		if len(cfg.Defers) != wantDefers {
			t.Fatalf("seed %d: collected %d defers, want %d", seed, len(cfg.Defers), wantDefers)
		}
	}
}
