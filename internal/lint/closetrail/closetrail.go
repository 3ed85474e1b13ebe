// Package closetrail checks that locally created lifecycle-bearing
// resources reach their teardown call on every return path.
//
// The tracked resources and their teardown methods:
//
//	qppt.New / engine constructors  -> Engine.Close   (stops sessions, closes spill)
//	spill.New                       -> Manager.Close  (removes spill files, frees budget)
//	duplist.NewSlabIn               -> Slab.Release   (returns chunks to the recycler)
//	Recycler.Local()                -> Recycler.Drain (hands cached chunks back to the parent)
//	wire.NewServer                  -> Server.Close   (closes listeners, drains live connections)
//	client.NewConn / NewPipe        -> Conn.Close     (sends Terminate, closes the socket)
//
// A leaked Manager keeps spill files on disk; a worker-local Recycler
// that is never drained strands its chunk cache; a leaked wire Server
// or client Conn pins its sessions and their statement caches. No test
// notices: drop the deferred Close of the HTTP adapter's per-request pipe
// connection and every test still passes while each request strands a
// server-side connection until shutdown. The analyzer proves, per
// function body, that a constructor result bound to a local variable
// reaches its teardown on all paths to a normal exit. `defer x.Close()`
// is the preferred form and always satisfies the check.
//
// Heuristics (documented because suppressions must be auditable): textual
// variable matching; the failure branch of an `x, err := ...`
// constructor's own error check is exempt; escape is ownership transfer
// (passing, returning or storing the value hands the obligation to the new
// owner); paths ending in panic / t.Fatal / os.Exit are exempt; functions
// using goto or labeled branches are skipped. Results not bound to a plain
// local (`ex.wrecs[i] = rec.Local()`) escape at birth and are not tracked. Intentional exceptions carry
// //qpptvet:ignore closetrail <reason> suppressions.
package closetrail

import (
	"go/ast"
	"go/types"
	"strings"

	"qppt/internal/lint/qlint"
)

// Analyzer is the closetrail invariant checker.
var Analyzer = &qlint.Analyzer{
	Name: "closetrail",
	Doc:  "check that locally created Engine/spill.Manager/duplist.Slab/worker-local Recycler/wire.Server/client.Conn values reach Close/Release/Drain on every path",
	Run:  run,
}

// resource describes one tracked lifecycle: values of type pkgSuffix.
// typeName created by constructors must reach the release method.
type resource struct {
	pkgSuffix string
	typeName  string
	release   string
}

var resources = []resource{
	{"qppt", "Engine", "Close"},
	{"internal/spill", "Manager", "Close"},
	{"internal/duplist", "Slab", "Release"},
	{"internal/arena", "Recycler", "Drain"},
	{"internal/wire", "Server", "Close"},
	{"internal/wire/client", "Conn", "Close"},
}

func run(pass *qlint.Pass) error {
	pass.EachFunc(true, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
		checkBody(pass, body)
	})
	return nil
}

func checkBody(pass *qlint.Pass, body *ast.BlockStmt) {
	var g *qlint.FlowGraph // built lazily: most bodies create no resources
	qlint.InspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		res, ok := acquires(pass, call)
		if !ok {
			return true
		}
		v, ok := as.Lhs[0].(*ast.Ident)
		if !ok || v.Name == "_" {
			return true // escaped (or deliberately discarded) at birth
		}
		if g == nil {
			g = qlint.BuildFlow(body)
		}
		checkResource(pass, g, as, call, v.Name, res)
		return true
	})
}

// acquires reports whether call creates a tracked resource: a NewXxx
// constructor returning (a pointer to) a tracked type, or Local() on a
// Recycler.
func acquires(pass *qlint.Pass, call *ast.CallExpr) (resource, bool) {
	name := calleeName(call)
	isCtor := strings.HasPrefix(name, "New")
	isLocal := name == "Local"
	if !isCtor && !isLocal {
		return resource{}, false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return resource{}, false
	}
	t := tv.Type
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return resource{}, false
		}
		t = tup.At(0).Type()
	}
	for _, res := range resources {
		if res.typeName == "Recycler" && !isLocal {
			continue // NewRecycler roots are long-lived; only Local() obligates Drain
		}
		if res.typeName != "Recycler" && !isCtor {
			continue
		}
		if qlint.NamedFrom(t, res.pkgSuffix, res.typeName) {
			return res, true
		}
	}
	return resource{}, false
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func checkResource(pass *qlint.Pass, g *qlint.FlowGraph, acq *ast.AssignStmt, call *ast.CallExpr, varName string, res resource) {
	// defer v.Close(), directly or inside a deferred closure, tears down
	// on every exit.
	for _, d := range g.Defers {
		if isReleaseOn(d.Call, varName, res.release) {
			return
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && containsReleaseOn(lit.Body, varName, res.release) {
			return
		}
	}

	node := g.NodeContaining(acq.Pos(), acq.End())
	if node == nil {
		return
	}
	errVar := ""
	if len(acq.Lhs) == 2 {
		if id, ok := acq.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
			errVar = id.Name
		}
	}

	releaseOrEscape := func(n ast.Node) bool {
		if containsReleaseOn(n, varName, res.release) {
			return true
		}
		return escapes(n, acq, varName)
	}
	if !g.AllPathsReach(node, errVar, releaseOrEscape) {
		pass.Reportf(call.Pos(),
			"%s.%s created here does not reach %s.%s() on every return path; add `defer %s.%s()` once the constructor succeeds",
			res.pkgSuffix[strings.LastIndexByte(res.pkgSuffix, '/')+1:], res.typeName, varName, res.release, varName, res.release)
	}
}

func isReleaseOn(call *ast.CallExpr, varName, release string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != release {
		return false
	}
	return qlint.ExprString(sel.X) == varName
}

func containsReleaseOn(n ast.Node, varName, release string) bool {
	found := false
	qlint.InspectShallow(n, func(m ast.Node) bool {
		if c, ok := m.(*ast.CallExpr); ok && isReleaseOn(c, varName, release) {
			found = true
		}
		return !found
	})
	return found
}

// escapes reports whether node transfers ownership of the resource: the
// variable appears as a call argument, in a return statement, on the
// right of an assignment (other than the acquisition itself), in a
// composite literal, or in a channel send.
func escapes(node ast.Node, acq *ast.AssignStmt, varName string) bool {
	found := false
	isVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == varName
	}
	qlint.InspectShallow(node, func(n ast.Node) bool {
		if found || n == acq {
			return !found
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if isVar(arg) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isVar(r) {
					found = true
				}
			}
		case *ast.AssignStmt:
			if blankAssign(n) {
				break // `_ = v` keeps ownership here
			}
			for _, r := range n.Rhs {
				if isVar(r) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if isVar(kv.Value) {
						found = true
					}
				} else if isVar(e) {
					found = true
				}
			}
		case *ast.SendStmt:
			if isVar(n.Value) {
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
