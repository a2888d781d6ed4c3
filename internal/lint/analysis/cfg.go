package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the control-flow half of the lightweight dataflow engine
// (the def-use half lives in defuse.go). BuildCFG lowers one function
// body into basic blocks connected by explicit edges, so analyzers that
// need "on every path" guarantees — spanend, goleak, closeleak — can ask
// a real reachability question instead of approximating with block
// nesting. The builder covers the full statement grammar: if/else, for
// and range loops (with labeled break/continue), switch/type-switch with
// fallthrough, select, goto, defer, and panic termination.

// Block is one basic block: a maximal straight-line run of simple
// statements and control expressions, ended by at most one control
// transfer.
type Block struct {
	Index int
	// Kind names the construct that created the block ("entry",
	// "for.head", "if.then", ...) — for debugging and test assertions,
	// never for analysis decisions.
	Kind string
	// Nodes are the flat statements and control expressions executed in
	// this block, in order. Compound statements are decomposed: an if
	// contributes its init statement and condition here and its branches
	// as separate blocks, so inspecting a node never wanders into a
	// nested branch. Function literals do appear inside nodes; analyzers
	// that must not cross into closures skip them while inspecting.
	Nodes []ast.Node
	Succs []*Block
	// Term is the statement that transfers control out of the block — a
	// return, branch, goto, fallthrough, or terminating panic call. Nil
	// means the block falls through to its successor.
	Term ast.Stmt
}

// CFG is the control-flow graph of one function body. Exit is the single
// synthetic sink: returns, terminating panics, and the implicit return
// at the end of the body all edge into it.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers collects every defer statement in the body (in source
	// order). Deferred calls run on all exits, so path-coverage analyzers
	// check them separately from block reachability.
	Defers []*ast.DeferStmt
	Body   *ast.BlockStmt
}

// BuildCFG lowers body into basic blocks. The builder is purely
// syntactic — it needs no type information — and never fails: statements
// after a terminator land in a block with no predecessors rather than
// being dropped, so dead code is preserved for analyzers while no path
// from the entry reaches it.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{Body: body},
		labels: make(map[string]*labelTarget),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur.Term == nil {
		// Implicit return at the closing brace.
		b.edge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

type labelTarget struct {
	// target is the label's own block — where goto lands.
	target *Block
	// brk/cont are set when the labeled statement is a loop, switch, or
	// select, for labeled break/continue.
	brk  *Block
	cont *Block
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block

	brk  []*Block // innermost-last break targets
	cont []*Block // innermost-last continue targets

	labels       map[string]*labelTarget
	pendingLabel string
	// nextCase is the fallthrough target while a switch case body builds.
	nextCase *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// jump terminates the current block with term, edges it to target, and
// opens an unreachable continuation for any dead statements that follow.
func (b *cfgBuilder) jump(target *Block, term ast.Stmt) {
	b.cur.Term = term
	b.edge(b.cur, target)
	b.cur = b.newBlock("unreachable")
}

// takeLabel consumes the pending label (set by the enclosing
// LabeledStmt), registering break/continue targets for it.
func (b *cfgBuilder) takeLabel(brk, cont *Block) {
	if b.pendingLabel == "" {
		return
	}
	lt := b.labelFor(b.pendingLabel)
	lt.brk, lt.cont = brk, cont
	b.pendingLabel = ""
}

func (b *cfgBuilder) labelFor(name string) *labelTarget {
	lt := b.labels[name]
	if lt == nil {
		lt = &labelTarget{target: b.newBlock("label." + name)}
		b.labels[name] = lt
	}
	return lt
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		join := b.newBlock("if.join")
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.fallInto(join)
		} else {
			b.edge(cond, join)
		}
		b.cur = thenEnd
		b.fallInto(join)
		b.cur = join

	case *ast.ForStmt:
		b.add(s.Init)
		head := b.newBlock("for.head")
		b.fallInto(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		b.takeLabel(after, post)
		b.pushLoop(after, post)
		b.cur = body
		b.stmt(s.Body)
		b.fallInto(post)
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		head.Nodes = append(head.Nodes, s.X)
		b.fallInto(head)
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.edge(head, body)
		b.edge(head, after)
		b.takeLabel(after, head)
		b.pushLoop(after, head)
		b.cur = body
		b.stmt(s.Body)
		b.fallInto(head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchClauses(s.Body, true)

	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchClauses(s.Body, false)

	case *ast.SelectStmt:
		cond := b.cur
		after := b.newBlock("select.after")
		b.takeLabel(after, nil)
		b.pushBreak(after)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			cb := b.newBlock("select.comm")
			b.edge(cond, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.fallInto(after)
		}
		b.popBreak()
		b.cur = after

	case *ast.LabeledStmt:
		lt := b.labelFor(s.Label.Name)
		b.fallInto(lt.target)
		b.cur = lt.target
		// Only loop/switch/select statements consume the label for
		// break/continue targeting; a labeled plain statement is just a
		// goto target.
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.jump(b.branchTarget(s, true), s)
		case token.CONTINUE:
			b.jump(b.branchTarget(s, false), s)
		case token.GOTO:
			b.jump(b.labelFor(s.Label.Name).target, s)
		case token.FALLTHROUGH:
			if b.nextCase != nil {
				b.jump(b.nextCase, s)
			}
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit, s)

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.cfg.Exit, s)
		}

	default:
		// Assignments, declarations, sends, go statements, inc/dec,
		// empty statements: straight-line nodes.
		b.add(s)
	}
}

// fallInto edges the current block to next unless it already terminated.
func (b *cfgBuilder) fallInto(next *Block) {
	if b.cur.Term == nil {
		b.edge(b.cur, next)
	}
}

// switchClauses lowers the clause list shared by switch and type switch.
// allowFallthrough wires the fallthrough target chain (type switches
// cannot fall through).
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, allowFallthrough bool) {
	cond := b.cur
	after := b.newBlock("switch.after")
	b.takeLabel(after, nil)
	var caseBlocks []*Block
	hasDefault := false
	for _, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		cb := b.newBlock("switch.case")
		for _, e := range cc.List {
			cb.Nodes = append(cb.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(cond, cb)
		caseBlocks = append(caseBlocks, cb)
	}
	if !hasDefault {
		b.edge(cond, after)
	}
	b.pushBreak(after)
	savedNext := b.nextCase
	for i, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		b.nextCase = nil
		if allowFallthrough && i+1 < len(caseBlocks) {
			b.nextCase = caseBlocks[i+1]
		}
		b.cur = caseBlocks[i]
		b.stmtList(cc.Body)
		b.fallInto(after)
	}
	b.nextCase = savedNext
	b.popBreak()
	b.cur = after
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.brk = append(b.brk, brk)
	b.cont = append(b.cont, cont)
}

func (b *cfgBuilder) popLoop() {
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
}

func (b *cfgBuilder) pushBreak(brk *Block) {
	b.brk = append(b.brk, brk)
	b.cont = append(b.cont, nil)
}

func (b *cfgBuilder) popBreak() { b.popLoop() }

// branchTarget resolves break/continue, labeled or not. An unresolvable
// branch (continue outside a loop — illegal Go) targets the exit so the
// builder stays total.
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, isBreak bool) *Block {
	if s.Label != nil {
		lt := b.labelFor(s.Label.Name)
		if isBreak && lt.brk != nil {
			return lt.brk
		}
		if !isBreak && lt.cont != nil {
			return lt.cont
		}
		return lt.target
	}
	stack := b.cont
	if isBreak {
		stack = b.brk
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != nil {
			return stack[i]
		}
	}
	return b.cfg.Exit
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// IsPanicTerm reports whether a block terminator is a terminating panic
// call. Every-path analyzers usually skip panic exits: deferred cleanups
// still run, and a crashing process does not leak.
func IsPanicTerm(term ast.Stmt) bool {
	es, ok := term.(*ast.ExprStmt)
	return ok && isPanicCall(es.X)
}

// UncoveredExit asks the every-path question: starting just after the
// statement `from` (or at the entry when from is nil), can control reach
// the function exit without passing a node for which pass returns true?
// If so it returns the position of the earliest such exit — the return
// statement, or the body's closing brace for the implicit return — and
// true. Paths that leave by panicking are not exits (deferred cleanups
// run regardless), and a nil pass never covers anything.
//
// Deferred statements do not cover paths here; callers that accept a
// defer as covering every exit check c.Defers before asking.
func (c *CFG) UncoveredExit(from ast.Node, pass func(ast.Node) bool) (token.Pos, bool) {
	startBlock, startIdx := c.Entry, 0
	if from != nil {
		blk, idx := c.find(from)
		if blk == nil {
			return token.NoPos, false
		}
		startBlock, startIdx = blk, idx+1
	}
	type item struct {
		b   *Block
		idx int
	}
	var uncovered []token.Pos
	seen := map[*Block]bool{}
	work := []item{{startBlock, startIdx}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		covered := false
		for i := it.idx; i < len(it.b.Nodes); i++ {
			if pass != nil && pass(it.b.Nodes[i]) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		for _, s := range it.b.Succs {
			if s == c.Exit {
				if it.b.Term == nil {
					uncovered = append(uncovered, c.Body.End())
				} else if !IsPanicTerm(it.b.Term) {
					uncovered = append(uncovered, it.b.Term.Pos())
				}
				continue
			}
			if !seen[s] {
				seen[s] = true
				work = append(work, item{s, 0})
			}
		}
	}
	if len(uncovered) == 0 {
		return token.NoPos, false
	}
	sort.Slice(uncovered, func(i, j int) bool { return uncovered[i] < uncovered[j] })
	return uncovered[0], true
}

// find locates the block and node index holding n — by identity first,
// then by position containment (for callers handing in a subexpression
// of a lowered statement).
func (c *CFG) find(n ast.Node) (*Block, int) {
	for _, blk := range c.Blocks {
		for i, node := range blk.Nodes {
			if node == n {
				return blk, i
			}
		}
	}
	for _, blk := range c.Blocks {
		for i, node := range blk.Nodes {
			if node.Pos() <= n.Pos() && n.End() <= node.End() {
				return blk, i
			}
		}
	}
	return nil, 0
}

// String renders the graph compactly for tests and debugging:
// "0:entry -> 2" per block, in index order, with node counts.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "%d:%s[%d]", blk.Index, blk.Kind, len(blk.Nodes))
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " %d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
