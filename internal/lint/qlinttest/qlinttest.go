// Package qlinttest runs a qlint analyzer over a testdata module and checks
// its diagnostics against `// want` comments:
//
//	m, err := spill.New(0, dir) // want `does not reach m.Close`
//
// Each want comment holds one or more quoted or backquoted regular
// expressions; every reported diagnostic on that line must match one of
// them, every want must be matched, and lines without wants must stay
// silent. This mirrors golang.org/x/tools/go/analysis/analysistest, which
// this module deliberately avoids depending on.
//
//qpptvet:ignore unreached test support the analyzer tests share
package qlinttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"qppt/internal/lint/qlint"
)

var wantRe = regexp.MustCompile("(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// Run loads the module in dir (an analyzer's testdata/src, with the
// benchmark module under it if there is one), applies the analyzer and
// checks its findings against the want comments of every package.
func Run(t *testing.T, dir string, a *qlint.Analyzer) {
	t.Helper()
	prog, err := qlint.Load(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := qlint.Run([]*qlint.Analyzer{a}, prog)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	checkWants(t, prog, diags)
}

type want struct {
	re   *regexp.Regexp
	pos  string
	used bool
}

func checkWants(t *testing.T, prog *qlint.Program, diags []qlint.Diagnostic) {
	t.Helper()
	wants := map[string][]*want{} // "file:line" -> wants
	var files []*ast.File
	for _, pkg := range prog.Packages {
		files = append(files, pkg.Files...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				key := lineKey(pos)
				for _, q := range wantRe.FindAllString(text[i+len("// want "):], -1) {
					pat := q
					if pat[0] == '`' {
						pat = pat[1 : len(pat)-1]
					} else {
						var err error
						if pat, err = strconv.Unquote(pat); err != nil {
							t.Fatalf("%s: bad want string %s: %v", pos, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], &want{re: re, pos: pos.String()})
				}
			}
		}
	}
	for _, d := range diags {
		key := lineKey(d.Pos)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, list := range wants {
		for _, w := range list {
			if !w.used {
				t.Errorf("%s: expected diagnostic matching %q, got none", w.pos, w.re)
			}
		}
	}
}

func lineKey(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
