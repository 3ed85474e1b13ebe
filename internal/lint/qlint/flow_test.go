package qlint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// Every lifecycle analyzer (pinbalance, closetrail, refescape) stands on
// the two path queries of flow.go; these cases pin the graph they walk,
// one Go control-flow construct at a time. A case is a function body in
// which from() marks the statement the query starts at (exclusive), hit()
// the nodes the query looks for and kill() the nodes that stop
// AnyPathReaches.
var flowCases = []struct {
	name, body  string
	errVar      string
	all, any    bool
	unsupported bool
	defers      int
}{
	{name: "straight line", body: `from(); hit()`, all: true, any: true},
	{name: "no hit", body: `from(); other()`},
	{name: "hit before from does not count", body: `hit(); from()`},

	{name: "if without else", body: `from(); if c { hit() }`, any: true},
	{name: "if/else both arms", body: `from(); if c { hit() } else { hit() }`, all: true, any: true},
	{name: "else-if chain missing one arm", body: `from(); if c { hit() } else if d { other() } else { hit() }`, any: true},
	{name: "from is the if condition", body: `if from() { hit() } else { hit() }`, all: true, any: true},
	{name: "from is the if init", body: `if x := from(); x { hit() }; hit()`, all: true, any: true},

	{name: "early return skips the hit", body: `from(); if c { return }; hit()`, any: true},
	{name: "hit before every return", body: `from(); if c { hit(); return }; hit()`, all: true, any: true},
	{name: "panic path need not hit", body: `from(); if c { panic("x") }; hit()`, all: true, any: true},
	{name: "t.Fatal path need not hit", body: `from(); if c { t.Fatal("x") }; hit()`, all: true, any: true},
	{name: "code after a return is dead", body: `from(); return; hit()`},
	{name: "return inside a func literal is not an exit", body: `from(); f := func() { return }; hit(); f()`, all: true, any: true},

	{name: "failed acquisition branch is exempt", body: `x, err := from(); if err != nil { return }; hit(x)`, errVar: "err", all: true, any: true},
	{name: "same branch counts without an errVar", body: `x, err := from(); if err != nil { return }; hit(x)`, any: true},
	{name: "err == nil puts the failure on the else side", body: `x, err := from(); if err == nil { hit(x); return }; return`, errVar: "err", all: true, any: true},
	{name: "nil on the left", body: `x, err := from(); if nil != err { return }; hit(x)`, errVar: "err", all: true, any: true},
	{name: "reassigned errVar is a new error", body: `x, err := from(); err = other(); if err != nil { return }; hit(x)`, errVar: "err", any: true},
	{name: "redeclared errVar is a new error", body: `x, err := from(); { var err = other(); if err != nil { return } }; hit(x)`, errVar: "err", any: true},
	{name: "another variable's nil check is an ordinary branch", body: `x, err := from(); if p != nil { return }; hit(x)`, errVar: "err", any: true},

	{name: "for with condition may run zero times", body: `from(); for i := 0; i < n; i++ { hit() }`, any: true},
	{name: "range may run zero times", body: `from(); for range xs { hit() }`, any: true},
	{name: "for{} leaves only through break", body: `from(); for { if c { hit(); break } }`, all: true, any: true},
	{name: "for{} without break never exits", body: `from(); for { other() }`, all: true},
	{name: "break skips the rest of the body", body: `from(); for { if c { break }; hit() }`, any: true},
	{name: "continue skips the rest of the body", body: `for i := 0; i < n; i++ { from(); if c { continue }; hit() }`, any: true},
	{name: "continue after a hit", body: `for _, x := range xs { from(); if c { hit(); continue }; hit() }`, all: true, any: true},
	{name: "continue runs the post statement", body: `for i := 0; i < n; hit() { from(); continue }`, all: true, any: true},
	{name: "back edge reaches an earlier node", body: `for { hit(); from() }`, all: true, any: true},
	{name: "kill on the back edge", body: `for { hit(); from(); kill() }`, all: true},

	{name: "labeled break", body: `from(); outer: for { for { break outer } }; hit()`, unsupported: true, all: true},
	{name: "labeled continue", body: `from(); outer: for i := 0; i < n; i++ { for { continue outer } }; hit()`, unsupported: true, all: true},
	{name: "goto", body: `from(); goto end; end: hit()`, unsupported: true, all: true},
	{name: "a label nothing branches to", body: `from(); l: for { break }; hit()`, all: true, any: true},

	{name: "switch with default", body: `from(); switch x { case 1: hit(); default: hit() }`, all: true, any: true},
	{name: "switch without default can skip every case", body: `from(); switch x { case 1: hit(); case 2: hit() }`, any: true},
	{name: "fallthrough enters the next case", body: `from(); switch x { case 1: fallthrough; case 2: hit(); default: hit() }`, all: true, any: true},
	{name: "without fallthrough the case ends", body: `from(); switch x { case 1: ; case 2: hit(); default: hit() }`, any: true},
	{name: "break in a switch binds to the switch", body: `from(); for { switch x { case 1: break; default: }; hit(); break }`, all: true, any: true},
	{name: "continue in a switch binds to the loop", body: `for i := 0; i < n; i++ { from(); switch x { case 1: continue }; hit() }`, any: true},
	{name: "switch init and tag are nodes", body: `from(); switch y := hit(); y { default: }`, all: true, any: true},
	{name: "case expressions are nodes", body: `from(); switch { case hit(): default: }`, any: true},
	{name: "type switch", body: `from(); switch v := x.(type) { case int: hit(v); default: hit() }`, all: true, any: true},

	{name: "select with default", body: `from(); select { case <-a: hit(); default: hit() }`, all: true, any: true},
	{name: "select without default is modelled as skippable", body: `from(); select { case <-a: hit(); case b <- 1: hit() }`, any: true},
	{name: "select comm statement is a node", body: `from(); select { case v := <-hit(): other(v); default: hit() }`, all: true, any: true},
	{name: "break in a select binds to the select", body: `from(); for { select { case <-a: break; default: }; hit(); break }`, all: true, any: true},

	{name: "defer is a node and is collected", body: `from(); defer hit()`, all: true, any: true, defers: 1},
	{name: "conditional defers are collected too", body: `from(); if c { defer hit() }; defer other()`, any: true, defers: 2},

	{name: "kill stops the search", body: `from(); kill(); hit()`, all: true},
	{name: "kill on one arm only", body: `from(); if c { kill() }; hit()`, all: true, any: true},
}

func TestFlowGraph(t *testing.T) {
	for _, tc := range flowCases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "f.go", "package p\nfunc f() {\n"+tc.body+"\n}", 0)
			if err != nil {
				t.Fatal(err)
			}
			body := f.Decls[0].(*ast.FuncDecl).Body
			g := BuildFlow(body)
			if g.Unsupported != tc.unsupported {
				t.Fatalf("Unsupported = %v, want %v", g.Unsupported, tc.unsupported)
			}
			if len(g.Defers) != tc.defers {
				t.Errorf("collected %d defers, want %d", len(g.Defers), tc.defers)
			}
			var from ast.Node
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && callee(call) == "from" {
					from = g.NodeContaining(call.Pos(), call.End())
				}
				return true
			})
			if from == nil {
				t.Fatal("from() is not inside any graph node")
			}
			hit := func(n ast.Node) bool { return calls(n, "hit") }
			kill := func(n ast.Node) bool { return calls(n, "kill") }
			if got := g.AllPathsReach(from, tc.errVar, hit); got != tc.all {
				t.Errorf("AllPathsReach = %v, want %v", got, tc.all)
			}
			n, got := g.AnyPathReaches(from, hit, kill)
			if got != tc.any {
				t.Errorf("AnyPathReaches = %v, want %v", got, tc.any)
			}
			if got != (n != nil && hit(n)) {
				t.Errorf("AnyPathReaches returned node %v with ok = %v", n, got)
			}
		})
	}
}

// A query that starts at a node the graph does not hold (the body of a
// function literal is opaque) proves nothing and reports nothing.
func TestFlowGraphForeignNode(t *testing.T) {
	g := BuildFlow(&ast.BlockStmt{})
	foreign := &ast.ExprStmt{X: &ast.Ident{Name: "x"}}
	never := func(ast.Node) bool { return false }
	if !g.AllPathsReach(foreign, "", never) {
		t.Error("AllPathsReach from a foreign node = false, want true")
	}
	if _, ok := g.AnyPathReaches(foreign, never, nil); ok {
		t.Error("AnyPathReaches from a foreign node = true, want false")
	}
}

func callee(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// calls reports whether n contains a call to the named function outside
// any function literal.
func calls(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && callee(call) == name {
			found = true
		}
		return !found
	})
	return found
}
