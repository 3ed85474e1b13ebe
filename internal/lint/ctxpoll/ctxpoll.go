// Package ctxpoll checks that functions driving whole-index scans in the
// executor packages poll for cancellation.
//
// QPPT's cancellation contract (PR 5) is cooperative: streaming loops
// poll the query context on a cadence — the established pattern is one
// ctx.Err() call per 1024 fed combinations (core's abortTickMask, the
// catalog's per-8192-rows build poll) — so a hung-up client unwinds the
// plan within a fraction of a millisecond. A new scan loop that never
// polls silently breaks that contract; nothing else in the toolchain
// notices.
//
// Rule: in the packages listed in targetPkgs, a function whose body
// (including its closures) drives a scan — Iterate / Range / Scan on an
// index or tree type, or a SyncScan / SyncScanRange sweep — must contain a
// cancellation poll: a ctx.Err() or <-ctx.Done() on a context.Context, a
// pipeline aborted() call, or an ExecContext err() check.
//
// Exemptions, kept deliberately mechanical:
//   - adapters that merely forward a visitor received as a function-typed
//     parameter (ptIndex.Iterate wrapping Tree.Iterate) — the polling
//     obligation stays with the visitor's provider;
//   - _test.go files (tests drive scans to completion by design).
//
// Bounded scans (per-morsel ranges polled by the caller per claim) carry
// //qpptvet:ignore ctxpoll <reason> suppressions.
package ctxpoll

import (
	"go/ast"
	"go/types"
	"strings"

	"qppt/internal/lint/qlint"
)

// Analyzer is the ctxpoll invariant checker.
var Analyzer = &qlint.Analyzer{
	Name: "ctxpoll",
	Doc:  "check that scan-driving loops in the executor packages poll for cancellation (the every-1024-combinations pattern)",
	Run:  run,
}

// targetPkgs are the packages whose scan loops must stay cancellable.
var targetPkgs = []string{"internal/core", "internal/catalog"}

// scanRecvPkgs are the packages whose types carry scan methods.
var scanRecvPkgs = []string{
	"internal/core",
	"internal/prefixtree",
	"internal/kisstree",
	"internal/hashbase",
}

var scanMethods = map[string]bool{
	"Iterate": true,
	"Range":   true,
	"Scan":    true,
}

var scanFuncs = map[string]bool{
	"SyncScan":      true,
	"SyncScanRange": true,
}

func run(pass *qlint.Pass) error {
	target := false
	for _, p := range targetPkgs {
		if qlint.PathHasSuffix(pass.Pkg.Path(), p) {
			target = true
			break
		}
	}
	if !target {
		return nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *qlint.Pass, fd *ast.FuncDecl) {
	var scans []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isScanCall(pass, call) && !forwardsVisitorParam(pass, fd, call) {
			scans = append(scans, call)
		}
		return true
	})
	if len(scans) == 0 {
		return
	}
	polled := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if polled {
			return false
		}
		if isPoll(pass, n) {
			polled = true
		}
		return true
	})
	if polled {
		return
	}
	for _, call := range scans {
		pass.Reportf(call.Pos(),
			"%s drives %s without a cancellation poll; check ctx on a cadence (ctx.Err() / p.aborted() / ec.err(), the every-1024-combinations pattern)",
			fd.Name.Name, qlint.ExprString(call.Fun))
	}
}

// isScanCall recognizes scan-driving calls: scan methods on index/tree/
// table types, and the package-level synchronized sweeps.
func isScanCall(pass *qlint.Pass, call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if scanMethods[fn.Sel.Name] {
			tv, ok := pass.TypesInfo.Types[fn.X]
			if ok {
				for _, p := range scanRecvPkgs {
					if qlint.FromPkg(tv.Type, p) {
						return true
					}
				}
			}
		}
		if scanFuncs[fn.Sel.Name] {
			// Qualified call prefixtree.SyncScan(...).
			if id, ok := fn.X.(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
					for _, p := range scanRecvPkgs {
						if qlint.PathHasSuffix(pn.Imported().Path(), p) {
							return true
						}
					}
				}
			}
		}
	case *ast.Ident:
		// Unqualified call to this package's own SyncScan/SyncScanRange.
		if scanFuncs[fn.Name] {
			if f, ok := pass.TypesInfo.Uses[fn].(*types.Func); ok && f.Pkg() == pass.Pkg {
				return true
			}
		}
	}
	return false
}

// forwardsVisitorParam reports whether the scan call's visitor argument
// is (or references) a function-typed parameter of fd — the adapter
// pattern, where the polling obligation stays with the caller supplying
// the visitor.
func forwardsVisitorParam(pass *qlint.Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if _, isFunc := pass.TypesInfo.Types[field.Type].Type.(*types.Signature); !isFunc {
				if _, isFunc := pass.TypesInfo.Types[field.Type].Type.Underlying().(*types.Signature); !isFunc {
					continue
				}
			}
			for _, id := range field.Names {
				params[pass.TypesInfo.Defs[id]] = true
			}
		}
	}
	if len(params) == 0 {
		return false
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && params[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isPoll recognizes the cancellation checks the codebase uses.
func isPoll(pass *qlint.Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch sel.Sel.Name {
		case "Err", "Done":
			tv, ok := pass.TypesInfo.Types[sel.X]
			return ok && qlint.NamedFrom(tv.Type, "context", "Context")
		case "aborted":
			return true // pipeline.aborted(): the throttled poll itself
		case "err":
			tv, ok := pass.TypesInfo.Types[sel.X]
			return ok && qlint.NamedFrom(tv.Type, "internal/core", "ExecContext")
		}
	}
	return false
}
