// Package pinbalance checks that every spill.Handle pin is released on
// every return path.
//
// A Pin / PinCtx call on a *spill.Handle keeps
// the handle's index resident and blocks eviction until a matching Unpin;
// a pin leaked on an error path wedges the spill manager's budget for the
// rest of the plan (and Manager.Close blocks on pinned handles). The
// analyzer proves, per function body, that each pin reaches an Unpin on
// the same receiver on all paths to a normal exit. `defer h.Unpin()` is
// the preferred form and always satisfies the check. Manager.PinSet pins a
// whole set at once; what it holds is its set argument, released by
// UnpinSet on the same expression.
//
// Heuristics (documented because suppressions must be auditable):
//
//   - Receivers match by source expression ("h", "r.h"), not by alias
//     analysis.
//   - The failure branch of the pin's own error check is exempt (a failed
//     pin holds nothing), until that error variable is reassigned.
//   - A pinned handle that escapes the function — passed to a call,
//     appended to a slice, stored, returned — transfers the release
//     obligation to its new owner and satisfies the check locally.
//   - Paths ending in panic / t.Fatal / os.Exit are unwinding and exempt.
//   - Functions using goto or labeled branches are skipped entirely.
//
// Pins whose balance is genuinely non-local (pin loops released by a
// later loop, intentionally permanent result pins) carry
// //qpptvet:ignore pinbalance <reason> suppressions.
package pinbalance

import (
	"go/ast"

	"qppt/internal/lint/qlint"
)

// Analyzer is the pinbalance invariant checker.
var Analyzer = &qlint.Analyzer{
	Name: "pinbalance",
	Doc:  "check that every spill.Handle Pin/PinCtx reaches an Unpin on all return paths (defer preferred)",
	Run:  run,
}

var pinMethods = []string{"Pin", "PinCtx"}

func run(pass *qlint.Pass) error {
	pass.EachFunc(true, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
		checkBody(pass, body)
	})
	return nil
}

func checkBody(pass *qlint.Pass, body *ast.BlockStmt) {
	var g *qlint.FlowGraph // built lazily: most bodies have no pins
	qlint.InspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := pass.CallOnType(call, "internal/spill", "Handle", pinMethods...)
		if !ok {
			if _, method, ok = pass.CallOnType(call, "internal/spill", "Manager", "PinSet"); !ok || len(call.Args) != 2 {
				return true
			}
			recv = call.Args[1] // the set, not the manager, is what stays pinned
		}
		if g == nil {
			g = qlint.BuildFlow(body)
		}
		checkPin(pass, g, body, call, recv, method)
		return true
	})
}

func checkPin(pass *qlint.Pass, g *qlint.FlowGraph, body *ast.BlockStmt, call *ast.CallExpr, recv ast.Expr, method string) {
	recvKey := qlint.ExprString(recv)

	// defer recv.Unpin(), directly or inside a deferred closure, releases
	// on every exit.
	for _, d := range g.Defers {
		if isUnpinOn(d.Call, recvKey) {
			return
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && containsUnpinOn(lit.Body, recvKey) {
			return
		}
	}

	node := nodeFor(g, body, call)
	if node == nil {
		return // not reachable in the graph (dead code)
	}
	errVar := pinErrVar(node, call)

	release := func(n ast.Node) bool {
		found := false
		qlint.InspectShallow(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && isUnpinOn(c, recvKey) {
				found = true
			}
			return !found
		})
		return found || escapes(n, call, recvKey)
	}
	if !g.AllPathsReach(node, errVar, release) {
		pass.Reportf(call.Pos(),
			"%s on %s is not released on every return path; defer its Unpin (UnpinSet for a set) after the pin succeeds, or unpin before each return",
			method, recvKey)
	}
}

// nodeFor finds the flow-graph node (statement or condition) containing
// the pin call.
func nodeFor(g *qlint.FlowGraph, body *ast.BlockStmt, call *ast.CallExpr) ast.Node {
	return g.NodeContaining(call.Pos(), call.End())
}

// pinErrVar names the variable receiving the pin's error, for
// failure-branch exemption: `err := h.Pin()` / `err = h.Pin()`.
func pinErrVar(node ast.Node, call *ast.CallExpr) string {
	as, ok := node.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || as.Rhs[0] != call || len(as.Lhs) != 1 {
		return ""
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return ""
	}
	return id.Name
}

func isUnpinOn(call *ast.CallExpr, recvKey string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Unpin":
		return qlint.ExprString(sel.X) == recvKey
	case "UnpinSet":
		return len(call.Args) == 1 && qlint.ExprString(call.Args[0]) == recvKey
	}
	return false
}

func containsUnpinOn(body *ast.BlockStmt, recvKey string) bool {
	found := false
	qlint.InspectShallow(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isUnpinOn(c, recvKey) {
			found = true
		}
		return !found
	})
	return found
}

// escapes reports whether node transfers ownership of the handle: the
// receiver appears as a call argument (append(pins, h), keep(h)), in a
// return statement, on the right of an assignment, in a composite
// literal, or in a channel send. pinCall itself is not an escape.
func escapes(node ast.Node, pinCall *ast.CallExpr, recvKey string) bool {
	found := false
	isRecv := func(e ast.Expr) bool { return e != nil && qlint.ExprString(e) == recvKey }
	qlint.InspectShallow(node, func(n ast.Node) bool {
		if found || n == pinCall {
			return !found
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if isRecv(arg) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isRecv(r) {
					found = true
				}
			}
		case *ast.AssignStmt:
			if blankAssign(n) {
				break // `_ = h` keeps ownership here
			}
			for _, r := range n.Rhs {
				if isRecv(r) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if isRecv(kv.Value) {
						found = true
					}
				} else if isRecv(e) {
					found = true
				}
			}
		case *ast.SendStmt:
			if isRecv(n.Value) {
				found = true
			}
		}
		return !found
	})
	return found
}

// blankAssign reports whether every left-hand side of the assignment is
// the blank identifier.
func blankAssign(as *ast.AssignStmt) bool {
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
