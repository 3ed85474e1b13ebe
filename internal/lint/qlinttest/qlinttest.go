// Package qlinttest runs a qlint analyzer over an analysistest-style
// testdata tree and checks its diagnostics against `// want` comments:
//
//	h.Pin() // want `pin is not released`
//
// Each want comment holds one or more quoted or backquoted regular
// expressions; every reported diagnostic on that line must match one of
// them, every want must be matched, and lines without wants must stay
// silent. This mirrors golang.org/x/tools/go/analysis/analysistest, which
// this module deliberately avoids depending on.
package qlinttest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"qppt/internal/lint/qlint"
)

var wantRe = regexp.MustCompile("(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// Run loads each package path from root/src and applies the analyzer,
// reporting any mismatch against the package's want comments.
func Run(t *testing.T, root string, a *qlint.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, path := range pkgPaths {
		pkg, err := qlint.LoadTestdata(root, path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := qlint.Run([]*qlint.Analyzer{a}, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, pkg, path, diags)
	}
}

type want struct {
	re   *regexp.Regexp
	pos  string
	used bool
}

func checkWants(t *testing.T, pkg *qlint.Package, path string, diags []qlint.Diagnostic) {
	t.Helper()
	wants := map[string][]*want{} // "file:line" -> wants
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
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
			t.Errorf("%s: unexpected diagnostic in %s: [%s] %s", d.Pos, path, d.Analyzer, d.Message)
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
