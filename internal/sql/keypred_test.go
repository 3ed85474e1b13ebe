package sql_test

import (
	"context"
	"slices"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// TestRepeatedValuesMatchOnce: a value listed twice in an IN list or an OR
// chain matches the rows it names once. Each text must answer what the text
// with the list de-duplicated answers, whether the list is a selection's
// key predicate (the fact's, a dimension's, or a select-join main's) or a
// residual; overlapping and adjacent values merge into one range.
func TestRepeatedValuesMatchOnce(t *testing.T) {
	const (
		fact    = "select sum(lo_revenue) as r from lineorder where "
		supp    = "select sum(lo_revenue) as r from lineorder, supplier where lo_suppkey = s_suppkey and "
		byYear  = "select d_year, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey and "
		groupBy = " group by d_year;"
	)
	cases := []struct{ text, dedup string }{
		{fact + "lo_orderdate in (19980101, 19980101);", fact + "lo_orderdate = 19980101;"},
		{fact + "lo_orderdate in (19980102, 19980101, 19980102);", fact + "lo_orderdate between 19980101 and 19980102;"},
		{supp + "(s_region = 'ASIA' or s_region = 'ASIA');", supp + "s_region = 'ASIA';"},
		{supp + "s_region in ('ASIA', 'ASIA');", supp + "s_region = 'ASIA';"},
		{byYear + "d_year in (1998, 01998)" + groupBy, byYear + "d_year = 1998" + groupBy},
		{byYear + "d_year in (1997, 1998, 1997)" + groupBy, byYear + "d_year between 1997 and 1998" + groupBy},
		{byYear + "d_year in (1998, 1994, 1998)" + groupBy, byYear + "d_year in (1994, 1998)" + groupBy},
		{byYear + "d_weeknuminyear = 6 and d_year in (1998, 1998)" + groupBy, byYear + "d_weeknuminyear = 6 and d_year = 1998" + groupBy},
		{byYear + "d_weeknuminyear = 6 and d_year in (1998, 1994, 1997, 1998)" + groupBy, byYear + "d_weeknuminyear = 6 and d_year in (1994, 1997, 1998)" + groupBy},
	}
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	planner := sql.NewPlanner(ds.Cat)
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	run := func(text string) [][]uint64 {
		t.Helper()
		stmt, err := planner.PlanSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rows, _, err := stmt.Run(context.Background(), env, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return rows.Rows
	}
	for _, c := range cases {
		got, want := run(c.text), run(c.dedup)
		if len(want) == 0 || want[0][len(want[0])-1] == 0 {
			t.Fatalf("fixture: %s answers %v", c.dedup, want)
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s\n= %v, want %v (%s)", c.text, got, want, c.dedup)
		}
	}
}

// TestSecondKeyRestrictionNarrowsScan: a later restriction on the column a
// selection's index is keyed on narrows the scan's key predicate at plan
// time, instead of testing each scanned key: the predicate is the
// intersection of both, "nothing matches" when it is empty, and no
// scanned row is dropped afterwards. The answers are the column
// baseline's.
func TestSecondKeyRestrictionNarrowsScan(t *testing.T) {
	const fact = "select sum(lo_revenue) as r from lineorder where "
	cases := []struct {
		where string
		want  core.KeyPred
	}{
		{"lo_orderdate between 19940101 and 19941231 and lo_orderdate < 19940301;", core.KeyPred{{Lo: 19940101, Hi: 19940300}}},
		{"lo_orderdate in (19940105, 19940301, 19950101) and lo_orderdate between 19940101 and 19941231;",
			core.KeyPred{{Lo: 19940105, Hi: 19940105}, {Lo: 19940301, Hi: 19940301}}},
		{"lo_orderdate >= 19940101 and lo_orderdate in (19930101, 19940102, 19980101) and lo_orderdate <= 19971231;", core.KeyPred{{Lo: 19940102, Hi: 19940102}}},
		{"lo_orderdate between 19940101 and 19941231 and lo_orderdate > 19950101;", core.KeyPred{{Lo: 1, Hi: 0}}},
	}
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	planner := sql.NewPlanner(ds.Cat)
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	for _, c := range cases {
		text := fact + c.where
		stmt, err := planner.PlanSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		sel, ok := stmt.Plan.Root.(*core.Selection)
		if !ok {
			t.Fatalf("%s: root is %s, want a selection", text, stmt.Plan.Root.Label())
		}
		if !slices.Equal(sel.Pred, c.want) || len(sel.Preds) != 0 {
			t.Errorf("%s: scans %v with predicates %v, want %v alone", text, sel.Pred, sel.Preds, c.want)
		}
		rows, stats, err := stmt.Run(context.Background(), env, core.Options{CollectStats: true})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		want, err := ds.RunColumnSQL(text)
		if err != nil {
			t.Fatalf("%s: baseline: %v", text, err)
		}
		if empty := c.want[0].Lo > c.want[0].Hi; !empty && (len(want.Rows) == 0 || want.Rows[0][0] == 0) {
			t.Fatalf("fixture: %s answers %v", text, want.Rows)
		}
		if !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
			t.Errorf("%s: engine %v, baseline %v", text, rows.Rows, want.Rows)
		}
		if n := stats.Ops[len(stats.Ops)-1].ResidualDropped; n != 0 {
			t.Errorf("%s: %d scanned rows dropped, want 0", text, n)
		}
	}
}
