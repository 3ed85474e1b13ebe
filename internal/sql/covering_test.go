package sql_test

import (
	"context"
	"slices"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// TestUnrestrictedTextReusesCoveringIndex: a fact-only text with no
// restriction scans every row, so after a star text it scans the star's
// fact index, which holds its columns, instead of building and keeping an
// index of its own; on a catalog with no such index it builds one. The
// answer is the column baseline's either way.
func TestUnrestrictedTextReusesCoveringIndex(t *testing.T) {
	const (
		total   = "select sum(lo_revenue) as r from lineorder;"
		byMonth = "select lo_orderdate, sum(lo_revenue) as r from lineorder group by lo_orderdate;"
	)
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	env, err := core.NewEnv(core.EnvConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	planner := sql.NewPlanner(ds.Cat)
	// scanned plans text, checks its answer and returns the base index
	// its selection scans.
	scanned := func(text string) *core.IndexedTable {
		t.Helper()
		stmt, err := planner.PlanSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		want, err := ds.RunColumnSQL(text)
		if err != nil {
			t.Fatalf("%s: baseline: %v", text, err)
		}
		rows, _, err := stmt.Run(context.Background(), env, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
			t.Fatalf("%s: engine %d rows %v, baseline %d rows %v", text, len(rows.Rows), head(rows.Rows), len(want.Rows), head(want.Rows))
		}
		sel, ok := stmt.Plan.Root.(*core.Selection)
		if !ok {
			t.Fatalf("%s: root is %s, want a selection", text, stmt.Plan.Root.Label())
		}
		return sel.Input.(*core.Base).Table
	}
	if got, want := scanned(total).Name, "lineorder[lo_revenue]"; got != want {
		t.Fatalf("on a fresh catalog %q scans %s, want %s", total, got, want)
	}

	ds = ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	planner = sql.NewPlanner(ds.Cat)
	star, err := planner.PlanSQL(ssb.SQLTexts["2.1"])
	if err != nil {
		t.Fatal(err)
	}
	fact := star.Plan.Root.(*core.SelectJoin).Main.(*core.Base).Table
	for _, text := range []string{total, byMonth} {
		if got := scanned(text); got != fact {
			t.Errorf("after Q2.1 %q scans %s, want Q2.1's fact index %s", text, got.Name, fact.Name)
		}
	}
	if again := scanned(total); again != fact || ds.Cat.Table("lineorder").Covering([]string{"lo_revenue"}) != fact {
		t.Errorf("a second plan of %q scans %s, want %s", total, again.Name, fact.Name)
	}
}
