package lint_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"qppt/internal/lint"
	"qppt/internal/lint/qlint"
)

// fixtureDir is the smoke-test module: a miniature shadow of the real
// API surface with one deliberate violation per analyzer, and a benchmark
// module of its own.
const fixtureDir = "testdata/fixture"

// expected maps each analyzer to a substring of the finding it must
// produce on the fixture. Keeping one entry per registered analyzer is
// load-bearing: an analyzer added to Suite() without fixture coverage
// fails TestFixtureCoversEveryAnalyzer below.
var expected = map[string]string{
	"closetrail": "spill.Manager created here does not reach m.Close()",
	"unreached":  "func TestOnly is unreached",
}

// vet runs the in-process suite over the module in dir.
func vet(t *testing.T, dir string) []qlint.Diagnostic {
	t.Helper()
	prog, err := qlint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := qlint.Run(lint.Suite(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestFixtureCoversEveryAnalyzer: every registered analyzer must produce
// its expected finding on the fixture module, and nothing else — in
// particular not for core.BenchOnly, which only the fixture's benchmark
// module refers to. A new analyzer without a planted fixture violation —
// or an analyzer that silently stops firing — fails here.
func TestFixtureCoversEveryAnalyzer(t *testing.T) {
	diags := vet(t, fixtureDir)
	byAnalyzer := map[string][]string{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d.Message)
	}
	for _, a := range lint.Suite() {
		want, ok := expected[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no expected fixture finding; plant a violation in %s and register it in the expected map", a.Name, fixtureDir)
			continue
		}
		found := false
		for _, msg := range byAnalyzer[a.Name] {
			if strings.Contains(msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("analyzer %s produced no fixture finding matching %q; got %v", a.Name, want, byAnalyzer[a.Name])
		}
	}
	if len(diags) != len(lint.Suite()) {
		var all []string
		for _, d := range diags {
			all = append(all, d.String())
		}
		t.Errorf("fixture produced %d findings, want exactly %d (one per analyzer):\n%s",
			len(diags), len(lint.Suite()), strings.Join(all, "\n"))
	}
}

// qpptvet builds the command and runs it in dir, returning its output and
// exit code.
func qpptvet(t *testing.T, dir string) (string, int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qpptvet")
	if out, err := exec.Command("go", "build", "-o", bin, "qppt/cmd/qpptvet").CombinedOutput(); err != nil {
		t.Fatalf("building qpptvet: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestQpptvetEndToEnd drives the built binary over the fixture module: it
// exits 1 and prints every analyzer's finding.
func TestQpptvetEndToEnd(t *testing.T) {
	out, code := qpptvet(t, fixtureDir)
	if code != 1 {
		t.Fatalf("qpptvet exited %d on the violation fixture, want 1; output:\n%s", code, out)
	}
	for name, want := range expected {
		if !strings.Contains(out, fmt.Sprintf("[%s] ", name)) || !strings.Contains(out, want) {
			t.Errorf("qpptvet output missing %s finding (%q):\n%s", name, want, out)
		}
	}
}

// TestStandaloneCleanModule: the binary exits 0 on this module itself —
// the whole-program run CI gates on, benchmark/ included as a root.
func TestStandaloneCleanModule(t *testing.T) {
	if out, code := qpptvet(t, "../.."); code != 0 {
		t.Fatalf("qpptvet on the module exited %d:\n%s", code, out)
	}
}

// patchFixture copies the fixture to a temporary module and replaces one
// line of its core package.
func patchFixture(t *testing.T, old, new string) string {
	t.Helper()
	dir := t.TempDir()
	copyTree(t, fixtureDir, dir)
	corePath := filepath.Join(dir, "internal/core/core.go")
	src, err := os.ReadFile(corePath)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(src), old, new, 1)
	if patched == string(src) {
		t.Fatal("fixture source changed; update the patch")
	}
	if err := os.WriteFile(corePath, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSuppressionSilencesFinding: a qpptvet:ignore comment with a reason
// silences the finding it covers, and is then not reported itself.
func TestSuppressionSilencesFinding(t *testing.T) {
	dir := patchFixture(t, "func LeakManager() {\n\tm, err",
		"func LeakManager() {\n\t//qpptvet:ignore closetrail fixture exercises the suppression path\n\tm, err")
	for _, d := range vet(t, dir) {
		if d.Analyzer != "unreached" {
			t.Errorf("suppressed closetrail finding still reported: %s", d)
		}
	}
}

// TestDanglingSuppressionIsReported: a well-formed ignore that covers no
// finding of the whole run is itself a finding, so no suppression outlives
// the code it excused.
func TestDanglingSuppressionIsReported(t *testing.T) {
	dir := patchFixture(t, "func UseManager() error {\n\tm, err",
		"func UseManager() error {\n\t//qpptvet:ignore closetrail this manager is closed, so this excuses nothing\n\tm, err")
	out, code := qpptvet(t, dir)
	if code != 1 || !strings.Contains(out, "core.go:22:1: [qpptvet] qpptvet:ignore covers no finding") {
		t.Fatalf("exit %d; want the unused ignore at core.go:22 reported:\n%s", code, out)
	}
}

func copyTree(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
