// Package refescape checks that arena.Ref compact pointers stay inside
// the code that owns their lifetime.
//
// An arena.Ref is a 32-bit tagged index into chunked arena storage; it is
// only meaningful while the backing arena's chunks are live. Two classes
// of misuse are flagged:
//
//  1. Storing a Ref into a struct field (or package-level variable)
//     outside the arena-owned packages (internal/arena and the tree /
//     duplist packages built directly on it). Long-lived copies of
//     compact pointers silently dangle when the arena is reset, detached
//     for spilling, or recycled; consumers must keep index positions or
//     copy payloads out instead.
//
//  2. Reading a Ref-typed local after a call to Reset / Detach on an
//     arena (or tree Release / slab Release / core.IndexedTable Release,
//     which releases the table's whole index) that can reach the read. The check is receiver-agnostic — any invalidation kills every
//     live Ref in the function — because the Ref carries no link to its
//     backing arena; a reassignment of the Ref revives it.
//
// Functions using goto or labeled branches are skipped by the
// reachability half of the check.
package refescape

import (
	"go/ast"
	"go/types"

	"qppt/internal/lint/qlint"
)

// Analyzer is the refescape invariant checker.
var Analyzer = &qlint.Analyzer{
	Name: "refescape",
	Doc:  "check that arena.Ref compact pointers are not stored in struct fields outside arena-owned packages or used after arena Reset/Detach/Release",
	Run:  run,
}

// ownedPkgs build directly on arena storage and legitimately embed Refs
// in their node structures.
var ownedPkgs = []string{
	"internal/arena",
	"internal/prefixtree",
	"internal/kisstree",
	"internal/duplist",
}

func isOwned(path string) bool {
	for _, p := range ownedPkgs {
		if qlint.PathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

func isRef(t types.Type) bool {
	return t != nil && qlint.NamedFrom(t, "internal/arena", "Ref")
}

func run(pass *qlint.Pass) error {
	if isOwned(pass.Pkg.Path()) {
		return nil
	}
	checkStores(pass)
	pass.EachFunc(true, func(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
		checkLiveness(pass, ftype, body)
	})
	return nil
}

// checkStores flags Refs stored into struct fields, package-level
// variables, or composite literal fields.
func checkStores(pass *qlint.Pass) {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0] // multi-value call: flag if any LHS is a persistent Ref slot
				}
				if rhs == nil || !isRef(pass.TypesInfo.Types[lhs].Type) {
					continue
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
						pass.Reportf(n.Pos(), "arena.Ref stored in struct field %s outside the arena-owned packages; compact pointers dangle after Reset/Detach/Release — keep an index or copy the payload", qlint.ExprString(sel))
					}
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
						pass.Reportf(n.Pos(), "arena.Ref stored in package-level variable %s; compact pointers dangle after Reset/Detach/Release", id.Name)
					}
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.Types[n].Type
			if t == nil {
				return true
			}
			if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
				return true
			}
			for _, elt := range n.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if isRef(pass.TypesInfo.Types[val].Type) {
					pass.Reportf(val.Pos(), "arena.Ref stored in struct literal outside the arena-owned packages; compact pointers dangle after Reset/Detach/Release — keep an index or copy the payload")
				}
			}
		}
		return true
	})
}

// invalidators kill every live compact pointer into their receiver's
// storage; since a Ref does not identify its arena, any of them kills
// all live Refs in the function.
func isInvalidator(pass *qlint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Reset", "Detach":
		return qlint.FromPkg(tv.Type, "internal/arena")
	case "Release":
		return qlint.FromPkg(tv.Type, "internal/duplist") ||
			qlint.FromPkg(tv.Type, "internal/prefixtree") ||
			qlint.FromPkg(tv.Type, "internal/kisstree") ||
			qlint.NamedFrom(tv.Type, "internal/core", "IndexedTable")
	}
	return false
}

func checkLiveness(pass *qlint.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	// Collect Ref-typed locals (including parameters) and invalidator
	// call sites; both are rare, so bail out early when absent.
	refVars := map[*types.Var]bool{}
	addDef := func(id *ast.Ident) {
		if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok && isRef(v.Type()) {
			refVars[v] = true
		}
	}
	if ftype != nil && ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, id := range field.Names {
				addDef(id)
			}
		}
	}
	qlint.InspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					addDef(id)
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				addDef(id)
			}
		}
		return true
	})
	var invalidators []*ast.CallExpr
	qlint.InspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isInvalidator(pass, call) {
			invalidators = append(invalidators, call)
		}
		return true
	})
	if len(invalidators) == 0 || len(refVars) == 0 {
		return
	}

	g := qlint.BuildFlow(body)
	for _, inv := range invalidators {
		node := g.NodeContaining(inv.Pos(), inv.End())
		if node == nil {
			continue
		}
		for v := range refVars {
			if v.Pos() > inv.Pos() {
				continue // defined after the invalidation: a fresh ref
			}
			use, found := g.AnyPathReaches(node,
				func(n ast.Node) bool { return readsVar(pass, n, v) },
				func(n ast.Node) bool { return overwritesVar(pass, n, v) })
			if found {
				pass.Reportf(use.Pos(), "arena.Ref %s is read after %s — compact pointers do not survive arena Reset/Detach/Release", v.Name(), callLabel(inv))
			}
		}
	}
}

func callLabel(call *ast.CallExpr) string {
	return qlint.ExprString(call.Fun) + "()"
}

// readsVar reports whether node reads v (any use that is not a plain
// overwrite target).
func readsVar(pass *qlint.Pass, node ast.Node, v *types.Var) bool {
	writes := map[*ast.Ident]bool{}
	if as, ok := node.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}
	found := false
	qlint.InspectShallow(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !writes[id] {
			if pass.TypesInfo.Uses[id] == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// overwritesVar reports whether node assigns v a fresh value.
func overwritesVar(pass *qlint.Pass, node ast.Node, v *types.Var) bool {
	as, ok := node.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == v || pass.TypesInfo.Defs[id] == v {
				return true
			}
		}
	}
	return false
}
