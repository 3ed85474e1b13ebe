// Package unreached reports declarations that nothing the module ships or
// measures refers to.
//
// Every top-level func, type, const, var and method, and every exported
// field of a struct type, in a non-test package of the module must be
// referenced from non-test code reachable from a root. The roots are fixed:
//
//   - main and init of every main package (cmd/*, examples/*);
//   - the exported API of the module's root package (qppt): its exported
//     declarations and the exported methods and fields of its exported
//     types;
//   - every reference from the benchmark module (benchmark/), which is read
//     but not analyzed;
//   - a declaration carrying //qpptvet:ignore unreached <reason> (a type
//     with its exported methods and fields).
//
// A reached declaration reaches whatever its source refers to. A method is
// also reached when its receiver type is reached and the type implements,
// through it, an interface the program uses: one a package the module
// imports exports, error, an interface type written in reached code, or a
// reached interface of the module. The init functions of a package run once
// anything in it is reached. A reference from a _test.go file reaches
// nothing.
//
// An unreached type is reported once, with its unreached methods; a package
// with nothing reached is reported once, at its package clause.
package unreached

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"

	"qppt/internal/lint/qlint"
)

// Analyzer is the unreached checker.
var Analyzer = &qlint.Analyzer{
	Name:  "unreached",
	Doc:   "check that every declaration is reached from a main package, the qppt API or benchmark/",
	Whole: true,
	Run:   run,
}

// A decl is one declaration the rule checks.
type decl struct {
	obj   types.Object
	name  *ast.Ident
	pkg   *qlint.Package
	src   ast.Node        // walked once reached; nil for a field
	owner *types.TypeName // a method's receiver type, a field's struct type
}

func (d *decl) String() string {
	name := d.obj.Name()
	if d.owner != nil {
		name = d.owner.Name() + "." + name
	}
	switch d.obj.(type) {
	case *types.TypeName:
		return "type " + name
	case *types.Const:
		return "const " + name
	case *types.Var:
		if d.owner != nil {
			return "field " + name
		}
		return "var " + name
	}
	if d.owner != nil {
		return "method " + name
	}
	return "func " + name
}

type graph struct {
	decls   map[types.Object]*decl
	order   []*decl // source order, package by package
	reached map[types.Object]bool
	work    []*decl
	ifaces  map[string][]*types.Interface // method name -> interfaces the program uses
	seen    map[*types.Interface]bool
}

func run(pass *qlint.Pass) error {
	prog := pass.Prog
	g := &graph{decls: map[types.Object]*decl{}, reached: map[types.Object]bool{},
		ifaces: map[string][]*types.Interface{}, seen: map[*types.Interface]bool{}}
	module := map[*types.Package]bool{}
	for _, pkg := range prog.Packages {
		module[pkg.Types] = true
		g.collect(pkg)
	}
	g.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range slices.Concat(prog.Packages, prog.Readers) {
		for _, imp := range pkg.Types.Imports() {
			if module[imp] {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						g.addIface(it)
					}
				}
			}
		}
	}

	for _, d := range g.order {
		isMain := d.pkg.Types.Name() == "main" && d.owner == nil && (d.obj.Name() == "main" || d.obj.Name() == "init")
		isAPI := prog.Root == d.pkg && d.obj.Exported() && (d.owner == nil || d.owner.Exported())
		if isMain || isAPI {
			g.mark(d.obj)
		}
	}
	for _, pkg := range prog.Readers {
		for _, f := range pkg.Files {
			g.walk(f, pkg.Info)
		}
	}
	g.propagate()
	before := make(map[types.Object]bool, len(g.reached))
	for obj := range g.reached {
		before[obj] = true
	}
	ignored := map[*decl]bool{}
	for _, d := range g.order {
		if pass.Ignored(d.name.Pos()) {
			ignored[d] = true
			g.mark(d.obj)
			if tn, ok := d.obj.(*types.TypeName); ok {
				for _, m := range g.order {
					if m.owner == tn && m.obj.Exported() {
						g.mark(m.obj)
					}
				}
			}
		}
	}
	g.propagate()

	g.report(pass, before, ignored)
	return nil
}

// report flags what the roots leave out: a suppressed declaration is
// reported (and its suppression so used) only when the roots alone miss
// it; a package nothing reaches is one finding.
func (g *graph) report(pass *qlint.Pass, before map[types.Object]bool, ignored map[*decl]bool) {
	flag := func(d *decl) bool { return !g.reached[d.obj] || ignored[d] && !before[d.obj] }
	byPkg := map[*qlint.Package][]*decl{}
	for _, d := range g.order {
		byPkg[d.pkg] = append(byPkg[d.pkg], d)
	}
	for _, pkg := range pass.Prog.Packages {
		ds := byPkg[pkg]
		if len(ds) > 0 && !slices.ContainsFunc(ds, func(d *decl) bool { return g.reached[d.obj] }) {
			pass.Reportf(pkg.Files[0].Package, "package %s: nothing in it is reached from a main package, the qppt API or benchmark/", pkg.Path)
			continue
		}
		for _, d := range ds {
			if d.owner != nil && flag(g.decls[d.owner]) || !flag(d) {
				continue // a member of a flagged type is named in its finding
			}
			msg := d.String() + " is unreached"
			if _, isType := d.obj.(*types.TypeName); isType {
				var methods []string
				for _, m := range ds {
					if _, fn := m.obj.(*types.Func); fn && m.owner == d.obj && !before[m.obj] {
						methods = append(methods, m.obj.Name())
					}
				}
				if len(methods) > 0 {
					sort.Strings(methods)
					msg += ", with its methods " + strings.Join(methods, ", ")
				}
			}
			pass.Report(d.name.Pos(), msg)
		}
	}
}

// collect indexes the declarations of one package.
func (g *graph) collect(pkg *qlint.Package) {
	add := func(name *ast.Ident, src ast.Node, owner *types.TypeName) {
		if name.Name == "_" {
			return
		}
		d := &decl{obj: pkg.Info.Defs[name], name: name, pkg: pkg, src: src, owner: owner}
		g.decls[d.obj] = d
		g.order = append(g.order, d)
	}
	for _, f := range pkg.Files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				var owner *types.TypeName
				if recv := pkg.Info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv(); recv != nil {
					owner = namedOf(recv.Type()).Obj()
				}
				add(fd.Name, fd, owner)
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec, nil)
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						owner := pkg.Info.Defs[spec.Name].(*types.TypeName)
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									add(name, nil, owner)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, spec, nil)
						}
					}
				}
			}
		}
	}
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// mark reaches obj if it is a declaration the rule checks.
func (g *graph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if d := g.decls[obj]; d != nil && !g.reached[obj] {
		g.reached[obj] = true
		g.work = append(g.work, d)
	}
}

// walk reaches everything n refers to.
func (g *graph) walk(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				g.mark(obj)
			}
		case *ast.InterfaceType:
			if it, ok := info.Types[n].Type.(*types.Interface); ok {
				g.addIface(it)
			}
		case *ast.CompositeLit:
			// An unkeyed struct literal sets every field.
			if st, ok := info.Types[n].Type.Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						g.mark(st.Field(i))
					}
				}
			}
		}
		return true
	})
}

func (g *graph) addIface(it *types.Interface) {
	if g.seen[it] {
		return
	}
	g.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		g.ifaces[name] = append(g.ifaces[name], it)
	}
}

// propagate reaches everything the reached declarations lead to, until
// nothing changes.
func (g *graph) propagate() {
	for changed := true; changed; {
		for len(g.work) > 0 {
			d := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			if d.src != nil {
				g.walk(d.src, d.pkg.Info)
			}
			switch obj := d.obj.(type) {
			case *types.TypeName:
				if it, ok := obj.Type().Underlying().(*types.Interface); ok {
					g.addIface(it)
				}
			case *types.Const, *types.Var:
				// A const in an iota group states no type of its own.
				if named := namedOf(obj.Type()); named != nil {
					g.mark(named.Obj())
				}
			}
		}
		changed = false
		live := map[*types.Package]bool{}
		for obj := range g.reached {
			live[obj.Pkg()] = true
		}
		for _, d := range g.order {
			if fn, ok := d.obj.(*types.Func); !ok || g.reached[fn] {
				continue
			}
			if d.owner == nil && d.obj.Name() == "init" && live[d.obj.Pkg()] ||
				d.owner != nil && g.reached[d.owner] && g.implements(d.owner, d.obj.Name()) {
				g.mark(d.obj)
				changed = true
			}
		}
	}
}

// implements reports whether tn, or a pointer to it, implements an
// interface the program uses that has a method called name.
func (g *graph) implements(tn *types.TypeName, name string) bool {
	if named := namedOf(tn.Type()); named == nil || named.TypeParams().Len() > 0 {
		return false // a generic type's methods are reached by name
	}
	for _, it := range g.ifaces[name] {
		if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
			return true
		}
	}
	return false
}
