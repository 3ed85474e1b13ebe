package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"qppt"
)

// parse registers the engine flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) (*execFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e := register(fs)
	return e, fs.Parse(args)
}

// Every flag must land in the qppt.Config field its help text names, and
// nowhere else: each case sets one flag and expects exactly one field to
// leave the zero Config (-workers defaults to 1, the serial engine).
func TestFlagsLandInConfig(t *testing.T) {
	base := qppt.Config{Workers: 1}
	for _, tc := range []struct {
		args []string
		want func(*qppt.Config)
	}{
		{nil, func(*qppt.Config) {}},
		{[]string{"-workers", "6"}, func(c *qppt.Config) { c.Workers = 6 }},
		{[]string{"-workers", "-1"}, func(c *qppt.Config) { c.Workers = -1 }},
		{[]string{"-membudget", "64MiB"}, func(c *qppt.Config) { c.MemBudget = 64 << 20 }},
		{[]string{"-recyclecap", "1G"}, func(c *qppt.Config) { c.RecycleCap = 1 << 30 }},
		{[]string{"-norecycle"}, func(c *qppt.Config) { c.DisableRecycle = true }},
		{[]string{"-max-plans", "3"}, func(c *qppt.Config) { c.MaxPlans = 3 }},
		{[]string{"-max-plans", "3", "-queue-depth", "9"}, func(c *qppt.Config) { c.MaxPlans, c.QueueDepth = 3, 9 }},
		{[]string{"-stmtcache", "-1"}, func(c *qppt.Config) { c.StmtCache = -1 }},
	} {
		e, err := parse(t, tc.args...)
		if err != nil {
			t.Errorf("%v: parse: %v", tc.args, err)
			continue
		}
		got, err := e.engineConfig()
		if err != nil {
			t.Errorf("%v: engineConfig: %v", tc.args, err)
			continue
		}
		want := base
		tc.want(&want)
		if got != want {
			t.Errorf("%v: config %+v, want %+v", tc.args, got, want)
		}
	}
}

// Flag values the engine would silently ignore or misread are errors.
func TestEngineConfigRejects(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		errLike string
	}{
		{[]string{"-queue-depth", "4"}, "needs -max-plans"},
		{[]string{"-membudget", "lots"}, "bad byte size"},
		{[]string{"-membudget", "8388608T"}, "out of range"},
		{[]string{"-recyclecap", "NaN"}, "out of range"},
	} {
		e, err := parse(t, tc.args...)
		if err != nil {
			t.Errorf("%v: parse: %v", tc.args, err)
			continue
		}
		if cfg, err := e.engineConfig(); err == nil || !strings.Contains(err.Error(), tc.errLike) {
			t.Errorf("%v: engineConfig = %+v, %v; want an error mentioning %q", tc.args, cfg, err, tc.errLike)
		}
	}
}

// The flags of the removed one-shot, fusion and batch-kernel modes and of
// the knobs that became constants must be gone, not silently accepted.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-recycle"},
		{"-buffer", "64"},
		{"-morsels", "2"},
		{"-probebatch", "1"},
		{"-nofuse"},
		{"-nokernel"},
	} {
		if _, err := parse(t, args...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: parse error %v, want \"flag provided but not defined\"", args, err)
		}
	}
}

// flagNames lists the flags a register function declares.
func flagNames(register func(*flag.FlagSet)) []string {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names // VisitAll is sorted
}

var flagToken = regexp.MustCompile("(?:^|[ `\\[])-([a-z][a-z-]*)")

// flagsIn extracts the distinct -flag tokens of a text, minus own (the
// flags the text's command defines itself), sorted.
func flagsIn(text string, own ...string) []string {
	seen := map[string]bool{}
	for _, o := range own {
		seen[o] = true
	}
	var names []string
	for _, m := range flagToken.FindAllStringSubmatch(text, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	return names
}

// The two places that list the engine flags for a reader — README's
// package table and the command's usage header — must name exactly the
// set register declares.
func TestDocumentedFlagsMatchRegister(t *testing.T) {
	engine := flagNames(func(fs *flag.FlagSet) { register(fs) })
	serve := flagNames(func(fs *flag.FlagSet) { registerServe(fs) })

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := ""
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `cmd/qpptsql`") {
			row = line
		}
	}
	if got := flagsIn(row); !reflect.DeepEqual(got, engine) {
		t.Errorf("README cmd/qpptsql row lists %v, register declares %v", got, engine)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	// The usage synopsis: the tab-indented comment lines after "Usage:".
	_, after, _ := strings.Cut(string(src), "// Usage:\n")
	var usage []string
	for _, line := range strings.Split(after, "\n") {
		if line == "//" && len(usage) == 0 {
			continue
		}
		if !strings.HasPrefix(line, "//\t") {
			break
		}
		usage = append(usage, line)
	}
	own := append([]string{"sf", "stats", "no-select-join"}, serve...)
	if got := flagsIn(strings.Join(usage, "\n"), own...); !reflect.DeepEqual(got, engine) {
		t.Errorf("main.go usage header lists %v, register declares %v", got, engine)
	}
}
