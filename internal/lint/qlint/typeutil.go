package qlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Analyzers identify QPPT types by package-path suffix rather than by the
// exact module path, so the same analyzer fires on the real module
// ("qppt/internal/spill"), on the stub modules under testdata/src, and on
// the smoke-test fixture module — all of which end in the same
// "internal/<pkg>" suffix.

// PathHasSuffix reports whether package path p is suffix or ends in
// "/"+suffix.
func PathHasSuffix(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// NamedFrom reports whether t (after unwrapping pointers and aliases) is
// the named type pkgSuffix.name.
func NamedFrom(t types.Type, pkgSuffix, name string) bool {
	t = deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

func deref(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return t
		}
	}
}

// ExprString renders an expression in canonical source form, for
// receiver-identity matching ("h", "r.h", "ex.spill").
func ExprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		writeExpr(b, e.X)
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
	case *ast.ParenExpr:
		writeExpr(b, e.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, e.X)
	case *ast.IndexExpr:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.Index)
		b.WriteByte(']')
	case *ast.BasicLit:
		b.WriteString(e.Value)
	case *ast.CallExpr:
		writeExpr(b, e.Fun)
		b.WriteString("(…)")
	default:
		b.WriteString("…")
	}
}

// InspectShallow walks n without descending into function literals, so a
// per-body analysis never attributes a closure's statements to its
// enclosing function.
func InspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit && m != n {
			return false
		}
		return visit(m)
	})
}
