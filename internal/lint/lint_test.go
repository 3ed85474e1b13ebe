package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qppt/internal/lint"
)

var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestRegistry: every analyzer in Suite() must be well-formed AND carry
// its own analysistest-style unit tests — a package under internal/lint/
// named after the analyzer, with a _test.go file and a testdata/src module
// containing want-comments. Registering an analyzer without tests fails
// here, which fails CI.
func TestRegistry(t *testing.T) {
	suite := lint.Suite()
	if len(suite) < 2 {
		t.Fatalf("suite has %d analyzers, want at least 2", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a == nil || a.Run == nil {
			t.Fatal("nil analyzer (or Run) in suite")
		}
		if !nameRe.MatchString(a.Name) {
			t.Errorf("analyzer name %q is not lower-case alphanumeric", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}

		dir := a.Name // internal/lint/<name>, relative to this package
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("analyzer %s has no package directory internal/lint/%s", a.Name, a.Name)
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, a.Name+"_test.go")); err != nil {
			t.Errorf("analyzer %s has no unit test file internal/lint/%s/%s_test.go", a.Name, a.Name, a.Name)
		}
		testdata := filepath.Join(dir, "testdata", "src")
		if st, err := os.Stat(testdata); err != nil || !st.IsDir() {
			t.Errorf("analyzer %s has no testdata tree internal/lint/%s/testdata/src", a.Name, a.Name)
			continue
		}
		// The testdata must assert at least one diagnostic (a want
		// comment) and one suppression, so both polarities stay covered.
		wants, ignores := 0, 0
		err := filepath.Walk(testdata, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			wants += strings.Count(string(data), "// want ")
			ignores += strings.Count(string(data), "qpptvet:ignore "+a.Name)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if wants == 0 {
			t.Errorf("analyzer %s testdata has no `// want` assertions", a.Name)
		}
		if ignores == 0 {
			t.Errorf("analyzer %s testdata exercises no qpptvet:ignore suppression", a.Name)
		}
	}
}
