// Package qlint is a minimal, dependency-free analysis framework in the
// shape of golang.org/x/tools/go/analysis, built for QPPT's invariant
// checkers (cmd/qpptvet).
//
// The vendored x/tools framework is deliberately not used: this module has
// no third-party dependencies and the analyzers only need syntax + type
// information, which the standard library provides. The API mirrors
// go/analysis closely (Analyzer, Pass, Diagnostic).
//
// Suppressions: any diagnostic can be silenced with an auditable comment
// on the flagged line or the line directly above it:
//
//	//qpptvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory — a bare ignore without justification does not
// suppress anything (and itself raises a diagnostic), so every silenced
// finding carries its audit trail in the source. An ignore that covers no
// finding is reported too, so none outlives the code it excused.
package qlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// comments. Lower-case, no spaces.
	Name string

	// Doc is the analyzer's help text: first line is a one-line
	// summary, the rest documents the exact rule and its heuristics.
	Doc string

	// Whole makes Run see the whole program once (Pass.Prog; Files, Pkg
	// and TypesInfo unset) instead of each package in turn.
	Whole bool

	// Run performs the analysis. Findings are delivered through
	// pass.Report / pass.Reportf; the error return is for operational
	// failures only (it aborts the whole run).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with the program and, unless the analyzer
// is Whole, one of its packages.
type Pass struct {
	Analyzer  *Analyzer
	Prog      *Program
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Ignored reports whether a suppression for this analyzer covers pos, so a
// finding reported there would be silenced.
func (p *Pass) Ignored(pos token.Pos) bool {
	return p.Prog.sups.match(p.Analyzer.Name, p.Fset.Position(pos)) != nil
}

// Run applies every analyzer to the program and returns the surviving
// diagnostics — suppressed findings filtered out; malformed, unknown and
// unused suppressions reported — sorted by position.
func Run(analyzers []*Analyzer, prog *Program) ([]Diagnostic, error) {
	prog.sups = collectSuppressions(prog)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := Pass{Analyzer: a, Prog: prog, Fset: prog.Fset, diags: &diags}
		if a.Whole {
			if err := a.Run(&pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Packages {
			pass.Files, pass.Pkg, pass.TypesInfo = pkg.Files, pkg.Types, pkg.Info
			if err := a.Run(&pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	diags = filterSuppressed(prog.sups, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// EachFunc invokes fn for every function body in the package: named
// function and method declarations, and — when literals is true —
// function literals (each literal visited as its own body, so a checker
// that analyzes bodies independently sees closures exactly once).
func (p *Pass) EachFunc(literals bool, fn func(name string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd.Type, fd.Body)
			if literals {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						fn(fd.Name.Name+":func literal", lit.Type, lit.Body)
					}
					return true
				})
			}
		}
	}
}
