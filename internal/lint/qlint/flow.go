package qlint

import (
	"go/ast"
	"go/token"
)

// This file implements a small statement-level control-flow graph over a
// single function body, with the one path query closetrail needs:
// AllPathsReach — from a given statement, does every path to a normal
// function exit pass a node matching a predicate? (the teardown must happen
// on all return paths)
//
// The graph is deliberately conservative and syntax-directed. Paths that
// end in panic(...), os.Exit, t.Fatal and friends are not required to
// release resources (the goroutine is unwinding). goto and labeled
// break/continue mark the graph Unsupported; analyzers skip such functions
// rather than guess. Function literals are opaque single nodes — closures
// get their own graphs.

// A flowBlock is a basic block: a run of nodes with branch-free flow.
type flowBlock struct {
	nodes []ast.Node
	succs []*flowBlock
	// failIdx, when >= 0, records that this block ends in a branch on
	// `<errVar> != nil` (or `== nil`) and succs[failIdx] is the branch
	// taken when errVar is non-nil. AllPathsReach uses it to skip the
	// failure branch of the very call that acquired the resource.
	errVar  string
	failIdx int
}

// A FlowGraph is the CFG of one function body.
type FlowGraph struct {
	entry  *flowBlock
	exit   *flowBlock
	blocks []*flowBlock
	// Defers collects every defer statement in the body, including
	// conditional ones — treated as if they always run, a deliberate
	// approximation in the code's favor.
	Defers []*ast.DeferStmt
	// Unsupported is set when the body uses goto or labeled
	// break/continue; AllPathsReach on an unsupported graph answers
	// optimistically so analyzers stay silent instead of guessing.
	Unsupported bool
}

type loopFrame struct {
	brk, cont *flowBlock
}

type flowBuilder struct {
	g     *FlowGraph
	loops []loopFrame
	// switch/select "break" targets stack interleaved with loops: break
	// binds to the innermost breakable construct.
	breaks []*flowBlock
}

// BuildFlow constructs the control-flow graph of body.
func BuildFlow(body *ast.BlockStmt) *FlowGraph {
	g := &FlowGraph{}
	b := &flowBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	last := b.stmts(g.entry, body.List)
	b.link(last, g.exit) // falling off the end is a normal exit
	return g
}

func (b *flowBuilder) newBlock() *flowBlock {
	blk := &flowBlock{failIdx: -1}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *flowBuilder) link(from, to *flowBlock) {
	if from != nil && to != nil {
		from.succs = append(from.succs, to)
	}
}

// stmts threads list through cur, returning the block open at the end
// (nil when the list always transfers control elsewhere).
func (b *flowBuilder) stmts(cur *flowBlock, list []ast.Stmt) *flowBlock {
	for _, s := range list {
		cur = b.stmt(cur, s)
		if cur == nil {
			// Unreachable trailing code: keep it in a fresh dead block so
			// its nodes still exist for position lookups.
			cur = b.newBlock()
		}
	}
	return cur
}

func (b *flowBuilder) stmt(cur *flowBlock, s ast.Stmt) *flowBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.LabeledStmt:
		// The label itself is harmless; only branches naming it are (and
		// they independently mark the graph unsupported).
		return b.stmt(cur, s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		markErrCond(cur, s.Cond)
		after := b.newBlock()
		thenStart := b.newBlock()
		b.link(cur, thenStart) // succs[0] = cond-true branch
		b.link(b.stmts(thenStart, s.Body.List), after)
		if s.Else != nil {
			elseStart := b.newBlock()
			b.link(cur, elseStart) // succs[1] = cond-false branch
			b.link(b.stmt(elseStart, s.Else), after)
		} else {
			b.link(cur, after) // succs[1] = fallthrough
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		head := b.newBlock()
		after := b.newBlock()
		b.link(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			b.link(b.stmt(post, s.Post), head)
		}
		bodyStart := b.newBlock()
		b.link(head, bodyStart)
		if s.Cond != nil {
			b.link(head, after) // for{} without cond only exits via break
		}
		b.pushLoop(after, post)
		b.link(b.stmts(bodyStart, s.Body.List), post)
		b.popLoop()
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		after := b.newBlock()
		b.link(cur, head)
		head.nodes = append(head.nodes, s.X)
		bodyStart := b.newBlock()
		b.link(head, bodyStart)
		b.link(head, after)
		b.pushLoop(after, head)
		b.link(b.stmts(bodyStart, s.Body.List), head)
		b.popLoop()
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.switchLike(cur, s)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.link(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		if s.Label != nil {
			b.g.Unsupported = true
			return nil
		}
		switch s.Tok {
		case token.BREAK:
			if n := len(b.breaks); n > 0 {
				b.link(cur, b.breaks[n-1])
			} else {
				b.g.Unsupported = true
			}
		case token.CONTINUE:
			if n := len(b.loops); n > 0 {
				b.link(cur, b.loops[n-1].cont)
			} else {
				b.g.Unsupported = true
			}
		case token.GOTO:
			b.g.Unsupported = true
		case token.FALLTHROUGH:
			// Handled by switchLike; seeing one here means a malformed
			// tree — be conservative.
			b.g.Unsupported = true
		}
		return nil

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		cur.nodes = append(cur.nodes, s)
		return cur

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if isTerminalCall(s.X) {
			return nil // panic/os.Exit/t.Fatal...: path never exits normally
		}
		return cur

	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchLike lowers switch / type switch / select to branches.
func (b *flowBuilder) switchLike(cur *flowBlock, s ast.Stmt) *flowBlock {
	after := b.newBlock()
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}

	b.breaks = append(b.breaks, after)
	type caseBody struct {
		start *flowBlock
		list  []ast.Stmt
	}
	bodies := make([]caseBody, 0, len(clauses))
	for _, c := range clauses {
		start := b.newBlock()
		b.link(cur, start)
		switch c := c.(type) {
		case *ast.CaseClause:
			if len(c.List) == 0 {
				hasDefault = true
			}
			for _, e := range c.List {
				start.nodes = append(start.nodes, e)
			}
			bodies = append(bodies, caseBody{start, c.Body})
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				start = b.stmt(start, c.Comm)
				if start == nil {
					start = b.newBlock()
				}
			}
			bodies = append(bodies, caseBody{start, c.Body})
		}
	}
	for i, cb := range bodies {
		list := cb.list
		fall := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				list, fall = list[:n-1], true
			}
		}
		end := b.stmts(cb.start, list)
		if fall && i+1 < len(bodies) {
			b.link(end, bodies[i+1].start)
		} else {
			b.link(end, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault {
		// A switch without default (or an empty one) can fall through
		// untouched; a select without default blocks, but modeling the
		// skip keeps the query conservative for AllPathsReach.
		b.link(cur, after)
	}
	return after
}

func (b *flowBuilder) pushLoop(brk, cont *flowBlock) {
	b.loops = append(b.loops, loopFrame{brk, cont})
	b.breaks = append(b.breaks, brk)
}

func (b *flowBuilder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
	b.breaks = b.breaks[:len(b.breaks)-1]
}

// markErrCond recognizes `x != nil` / `x == nil` branch conditions.
func markErrCond(blk *flowBlock, cond ast.Expr) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	var id *ast.Ident
	if i, ok := bin.X.(*ast.Ident); ok && isNilIdent(bin.Y) {
		id = i
	} else if i, ok := bin.Y.(*ast.Ident); ok && isNilIdent(bin.X) {
		id = i
	}
	if id == nil {
		return
	}
	switch bin.Op {
	case token.NEQ:
		blk.errVar, blk.failIdx = id.Name, 0 // succs[0] = "x != nil" taken
	case token.EQL:
		blk.errVar, blk.failIdx = id.Name, 1 // succs[1] = "x == nil" not taken
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isTerminalCall reports whether e is a call that never returns.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		switch fn.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "FailNow", "Goexit", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// NodeContaining returns the graph node (statement or condition) whose
// source range encloses [pos, end), or nil. Graph nodes are disjoint, so
// the first hit is the only one.
func (g *FlowGraph) NodeContaining(pos, end token.Pos) ast.Node {
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if n.Pos() <= pos && end <= n.End() {
				return n
			}
		}
	}
	return nil
}

// findNode locates the block and node index holding n (by identity).
func (g *FlowGraph) findNode(n ast.Node) (*flowBlock, int) {
	for _, blk := range g.blocks {
		for i, node := range blk.nodes {
			if node == n {
				return blk, i
			}
		}
	}
	return nil, 0
}

// pathState keys the DFS memo: position plus whether the acquisition's
// error variable still holds the acquisition result.
type pathState struct {
	blk     *flowBlock
	errLive bool
}

// AllPathsReach reports whether, starting from the statement `from`
// (which must be a node of the graph), every path to a normal function
// exit passes a node for which match returns true. errVar, when
// non-empty, names the variable that received the acquisition's error:
// branches taken only when that variable is non-nil are excluded until
// the variable is reassigned. Unsupported graphs answer true.
func (g *FlowGraph) AllPathsReach(from ast.Node, errVar string, match func(ast.Node) bool) bool {
	if g.Unsupported {
		return true
	}
	blk, idx := g.findNode(from)
	if blk == nil {
		return true // not in graph (dead code): nothing to prove
	}
	memo := make(map[pathState]bool)
	onPath := make(map[pathState]bool)
	var walk func(blk *flowBlock, idx int, errLive bool) bool
	walk = func(blk *flowBlock, idx int, errLive bool) bool {
		if idx == 0 {
			st := pathState{blk, errLive}
			if v, ok := memo[st]; ok {
				return v
			}
			if onPath[st] {
				return true // looping path: never exits
			}
			onPath[st] = true
			defer func() { delete(onPath, st) }()
		}
		if blk == g.exit {
			return false
		}
		for i := idx; i < len(blk.nodes); i++ {
			n := blk.nodes[i]
			if match(n) {
				return true
			}
			if errLive && errVar != "" && reassigns(n, errVar) {
				errLive = false
			}
		}
		if len(blk.succs) == 0 {
			return true // terminated path (panic etc.)
		}
		ok := true
		for i, succ := range blk.succs {
			if errLive && blk.errVar == errVar && errVar != "" && i == blk.failIdx {
				continue // the acquisition itself failed: nothing to release
			}
			if !walk(succ, 0, errLive) {
				ok = false
				break
			}
		}
		if idx == 0 {
			memo[pathState{blk, errLive}] = ok
		}
		return ok
	}
	return walk(blk, idx+1, errVar != "")
}

// reassigns reports whether node assigns to a variable named name.
func reassigns(n ast.Node, name string) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
				return true
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						if id.Name == name {
							return true
						}
					}
				}
			}
		}
	}
	return false
}
