// Package cfg builds intra-procedural control-flow graphs from Go
// syntax trees, plus the two dataflow facilities EdgeBOL's lint
// analyzers query on top of them: block dominance (dom.go) and
// reaching definitions with light value tracking (reach.go).
//
// The package is a deliberately small analogue of
// golang.org/x/tools/go/cfg — the module carries no third-party
// dependencies — with just enough fidelity for lint-grade reasoning:
//
//   - A Graph is built per function body (FuncDecl or FuncLit). Function
//     literals are not inlined; each gets its own graph.
//   - Block.Nodes holds only "atomic" items in execution order: simple
//     statements (assignments, sends, calls, defers, go statements,
//     return values) and the guard expressions of if/for/switch.
//     Compound statements never appear, with one documented exception:
//     a RangeStmt appears in its loop-head block so its key/value
//     bindings stay visible to the reaching-definitions pass. Use
//     Inspect to walk a block node without descending into nested
//     bodies.
//   - Switch/type-switch case expressions are hoisted into the head
//     block: every case guard evaluates before any clause body runs, so
//     a `case den == 0:` guard dominates the other clauses' bodies.
//     This is an approximation (real evaluation stops at the first
//     match) that errs toward recognizing guards, which is the safe
//     direction for the analyzers built on it.
//   - Terminating calls — panic, os.Exit, log.Fatal*, runtime.Goexit,
//     (*testing.T).Fatal* — end their block with no successors, so code
//     after an early-exit guard is dominated by the guard alone. The
//     match is syntactic (a shadowed `panic` would be misread), which is
//     acceptable at lint grade.
//
// All facilities are pure functions of the syntax tree (and, for
// reaching definitions, the type info); nothing here touches the
// loader, so the package is reusable from both the driver and the
// analysistest fixtures.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is a maximal straight-line sequence of atomic nodes.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the block's statements and guard expressions in
	// execution order. See the package comment for what appears here.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the function entry block (always Blocks[0]).
	Entry *Block
	// Blocks lists every block, reachable or not, in creation order.
	Blocks []*Block

	// conds marks guard expressions: if/for conditions and hoisted
	// switch case expressions, keyed by the expression node.
	conds map[ast.Node]*Block

	// dominance is computed lazily by Dominates.
	dom [][]bool

	// nodeBlock maps each block-level node to its block.
	nodeBlock map[ast.Node]*Block
}

// New builds the control-flow graph of body. A nil body (a function
// declared without one, e.g. assembly-backed) yields a graph with an
// empty entry block.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{conds: make(map[ast.Node]*Block), nodeBlock: make(map[ast.Node]*Block)}
	b := &builder{g: g, labels: make(map[string]*labelTargets)}
	g.Entry = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.patchGotos()
	return g
}

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block // nil while the next statement is unreachable

	// breakTargets / continueTargets are stacks of the innermost
	// enclosing break and continue destinations.
	breakTargets    []*Block
	continueTargets []*Block

	labels map[string]*labelTargets
	gotos  []pendingGoto
}

// labelTargets records where a labeled statement's break, continue, and
// goto edges land.
type labelTargets struct {
	breakT    *Block
	continueT *Block
	gotoT     *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends an atomic node to the current block.
func (b *builder) add(n ast.Node) {
	if b.cur == nil || n == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.nodeBlock[n] = b.cur
}

// addCond appends a guard expression to the current block and marks it
// as a condition.
func (b *builder) addCond(e ast.Expr) {
	if b.cur == nil || e == nil {
		return
	}
	b.add(e)
	b.g.conds[e] = b.cur
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the statement's label when it
// was reached through a LabeledStmt, for labeled break/continue.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// Start a fresh block so gotos have a well-defined target.
		target := b.newBlock()
		edge(b.cur, target)
		b.cur = target
		lt := &labelTargets{gotoT: target}
		b.labels[s.Label.Name] = lt
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.addCond(s.Cond)
		head := b.cur
		then := b.newBlock()
		done := b.newBlock()
		edge(head, then)
		b.cur = then
		b.stmtList(s.Body.List)
		edge(b.cur, done)
		if s.Else != nil {
			els := b.newBlock()
			edge(head, els)
			b.cur = els
			b.stmt(s.Else, "")
			edge(b.cur, done)
		} else {
			edge(head, done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		edge(b.cur, head)
		b.cur = head
		b.addCond(s.Cond)
		body := b.newBlock()
		done := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		edge(head, body)
		if s.Cond != nil {
			edge(head, done)
		}
		b.pushLoop(label, done, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		if s.Post != nil {
			edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post, "")
			edge(b.cur, head)
		} else {
			edge(b.cur, head)
		}
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock()
		edge(b.cur, head)
		b.cur = head
		// The whole RangeStmt sits in the head block so the key/value
		// bindings are visible to reaching definitions; Inspect prunes
		// the body when walking it.
		b.add(s)
		body := b.newBlock()
		done := b.newBlock()
		edge(head, body)
		edge(head, done)
		b.pushLoop(label, done, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		edge(b.cur, head)
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) []ast.Expr { return cc.List })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) []ast.Expr { return nil })

	case *ast.SelectStmt:
		head := b.cur
		done := b.newBlock()
		hasDefault := false
		b.breakTargets = append(b.breakTargets, done)
		if label != "" {
			b.labels[label].breakT = done
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			clause := b.newBlock()
			edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			} else {
				hasDefault = true
			}
			b.stmtList(cc.Body)
			edge(b.cur, done)
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		_ = hasDefault // a select blocks its goroutine, not the graph
		if len(s.Body.List) == 0 {
			// select{} blocks forever: done is unreachable.
			b.cur = nil
			return
		}
		b.cur = done

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			b.jump(s.Label, func(lt *labelTargets) *Block { return lt.breakT }, b.breakTargets)
		case token.CONTINUE:
			b.jump(s.Label, func(lt *labelTargets) *Block { return lt.continueT }, b.continueTargets)
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// caseClauses wires the fallthrough edge; nothing to do here.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && terminates(call) {
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt, ...
		b.add(s)
	}
}

// caseClauses wires a (type) switch's clauses: every case expression is
// hoisted into the head block (see the package comment), each clause
// body gets its own block, and fallthrough falls into the next clause.
func (b *builder) caseClauses(list []ast.Stmt, label string, exprs func(*ast.CaseClause) []ast.Expr) {
	head := b.cur
	done := b.newBlock()
	b.breakTargets = append(b.breakTargets, done)
	if label != "" {
		b.labels[label].breakT = done
	}
	hasDefault := false
	bodies := make([]*Block, len(list))
	for i := range list {
		bodies[i] = b.newBlock()
	}
	for i, c := range list {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if head != nil {
			for _, e := range exprs(cc) {
				b.cur = head
				b.addCond(e)
			}
		}
		edge(head, bodies[i])
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		if endsInFallthrough(cc.Body) && i+1 < len(list) {
			edge(b.cur, bodies[i+1])
			b.cur = nil
		}
		edge(b.cur, done)
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if !hasDefault {
		edge(head, done)
	}
	b.cur = done
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// pushLoop registers break/continue targets for a loop, and binds them
// to its label when present.
func (b *builder) pushLoop(label string, breakT, continueT *Block) {
	b.breakTargets = append(b.breakTargets, breakT)
	b.continueTargets = append(b.continueTargets, continueT)
	if label != "" {
		if lt := b.labels[label]; lt != nil {
			lt.breakT = breakT
			lt.continueT = continueT
		}
	}
}

func (b *builder) popLoop() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

// jump wires a break or continue edge, honoring an optional label.
func (b *builder) jump(label *ast.Ident, pick func(*labelTargets) *Block, stack []*Block) {
	var target *Block
	if label != nil {
		if lt := b.labels[label.Name]; lt != nil {
			target = pick(lt)
		}
	} else if len(stack) > 0 {
		target = stack[len(stack)-1]
	}
	edge(b.cur, target)
	b.cur = nil
}

// patchGotos resolves goto edges after the whole body is built, so
// forward gotos find their labels.
func (b *builder) patchGotos() {
	for _, pg := range b.gotos {
		if lt := b.labels[pg.label]; lt != nil {
			edge(pg.from, lt.gotoT)
		}
	}
}

// terminates reports whether a call syntactically never returns: panic,
// os.Exit, runtime.Goexit, log.Fatal*, and (*testing.T).Fatal*.
func terminates(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit":
			if id, ok := fun.X.(*ast.Ident); ok {
				return id.Name == "os"
			}
		case "Goexit":
			if id, ok := fun.X.(*ast.Ident); ok {
				return id.Name == "runtime"
			}
		case "Fatal", "Fatalf", "Fatalln":
			return true
		}
	}
	return false
}

// IsCond reports whether n is a guard expression (an if/for condition
// or a hoisted switch case expression) and returns its block.
func (g *Graph) IsCond(n ast.Node) (*Block, bool) {
	b, ok := g.conds[n]
	return b, ok
}

// NodeAt returns the innermost block-level node spanning pos and its
// block: a RangeStmt spans its whole body, so a statement in the body
// resolves to itself, not to the loop header. An unreachable statement
// (dead code after return) yields (nil, nil).
func (g *Graph) NodeAt(pos token.Pos) (ast.Node, *Block) {
	var at ast.Node
	var atBlk *Block
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if n.Pos() <= pos && pos <= n.End() && (at == nil || n.End()-n.Pos() < at.End()-at.Pos()) {
				at, atBlk = n, blk
			}
		}
	}
	return at, atBlk
}

// Inspect walks a block-level node and its sub-expressions with f,
// pruning nested bodies: a RangeStmt's Body (its key, value, and range
// operand are visited) and every FuncLit body (a closure is its own
// function, with its own graph). All other block-level nodes are simple
// and are walked in full.
func Inspect(n ast.Node, f func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			Inspect(rs.Key, f)
		}
		if rs.Value != nil {
			Inspect(rs.Value, f)
		}
		Inspect(rs.X, f)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	})
}
