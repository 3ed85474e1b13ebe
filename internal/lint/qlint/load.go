package qlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is what one run analyzes: every non-test package of one module,
// and the packages of the benchmark module nested in it, which use the first
// ones but are not analyzed themselves.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // the module's packages, dependencies first
	Root     *Package   // the package in the module's root directory, or nil
	Readers  []*Package // the benchmark module's packages

	sups suppressions // set by Run
}

// benchmarkDir is where, inside the analyzed module, the benchmark module
// lives: its own go.mod, replacing the analyzed module with the source
// beside it.
const benchmarkDir = "benchmark"

// Load type-checks the module in dir ("" is the current directory) from
// source, and then the benchmark module under it if there is one. A package
// of the module is imported in its source-checked form, so one object stands
// for each declaration across the program; everything else is imported from
// compiler export data (`go list -export`), so loading works offline and
// without any third-party packages.
func Load(dir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: token.NewFileSet(), exports: map[string]string{}, src: map[string]*types.Package{}}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("qlint: no export data for %q", path)
		}
		return os.Open(f)
	})
	prog := &Program{Fset: l.fset}
	if prog.Packages, err = l.load(abs); err != nil {
		return nil, err
	}
	for _, p := range prog.Packages {
		if p.Dir == abs {
			prog.Root = p
		}
	}
	bench := filepath.Join(abs, benchmarkDir)
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err == nil {
		if prog.Readers, err = l.load(bench); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type loader struct {
	fset    *token.FileSet
	exports map[string]string         // import path -> export data file
	gc      types.Importer            // export data, for everything else
	src     map[string]*types.Package // packages checked from source
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.src[path]; p != nil {
		return p, nil
	}
	return l.gc.Import(path)
}

// load lists the module in dir and type-checks its packages in dependency
// order, so each one's imports are already checked when it is.
func (l *loader) load(dir string) ([]*Package, error) {
	listed, err := goList(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.Export != "" && l.exports[p.ImportPath] == "" {
			l.exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		pkg, err := checkPackage(l.fset, l, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		l.src[p.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// checkPackage parses and type-checks one package from source files.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("qlint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("qlint: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// goList runs `go list -export -deps ./...` in dir: every package of the
// module there and everything they import, dependencies first.
func goList(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly", "-export", "-deps", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("qlint: go list in %s: %w\n%s", dir, err, stderr.String())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(&stdout); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("qlint: go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}
}
