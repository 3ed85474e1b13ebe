package sql_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// TestFactRestrictionOnForeignKeyRestrictsDimension: a fact restriction on
// a joined foreign key moves onto the dimension's join key, equal to it
// under the join predicate. A one-year range on lo_orderdate then drives a
// select-join that probes the year's dates alone, not a join over all
// seven years that tests the range on every fact row; whatever role the
// dimension takes, and whatever literal the restriction names, the answer
// is the column baseline's.
func TestFactRestrictionOnForeignKeyRestrictsDimension(t *testing.T) {
	const (
		byMonth = "select d_yearmonthnum, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey and "
		monthly = " group by d_yearmonthnum;"
		asia    = "select c_nation, sum(lo_revenue) as r from lineorder, customer, `date` " +
			"where lo_custkey = c_custkey and lo_orderdate = d_datekey and c_region = 'ASIA' and "
	)
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	planner := sql.NewPlanner(ds.Cat)
	var envs []*core.Env
	for _, workers := range []int{1, 2} {
		env, err := core.NewEnv(core.EnvConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		envs = append(envs, env)
	}
	// check plans text, runs it on every Env and holds each answer to the
	// baseline's; it returns the plan and the last run's stats.
	check := func(text string) (*sql.Statement, *core.PlanStats) {
		t.Helper()
		want, err := ds.RunColumnSQL(text)
		if err != nil {
			t.Fatalf("%s: baseline: %v", text, err)
		}
		stmt, err := planner.PlanSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		var stats *core.PlanStats
		for i, env := range envs {
			var rows *sql.Rows
			rows, stats, err = stmt.Run(context.Background(), env, core.Options{CollectStats: true})
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if !slices.Equal(rows.Attrs, want.Attrs) || !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
				t.Fatalf("%s on %d workers:\nengine   %v %d rows %v\nbaseline %v %d rows %v", text, i+1,
					rows.Attrs, len(rows.Rows), head(rows.Rows), want.Attrs, len(want.Rows), head(want.Rows))
			}
		}
		return stmt, stats
	}

	years := ds.Cat.Table("date").Columns()["d_year"]
	for _, y := range []uint64{1993, 1996} {
		text := fmt.Sprintf("%slo_orderdate between %d0101 and %d1231%s", byMonth, y, y, monthly)
		stmt, stats := check(text)
		sj, ok := stmt.Plan.Root.(*core.SelectJoin)
		if !ok {
			t.Fatalf("%d: root is %s, want a select-join", y, stmt.Plan.Root.Label())
		}
		if want := (core.KeyPred{{Lo: y*10000 + 101, Hi: y*10000 + 1231}}); !slices.Equal(sj.Pred, want) || len(factPreds(sj)) != 0 {
			t.Errorf("%d: select-join predicate %v, main predicates %v; want %v and none", y, sj.Pred, factPreds(sj), want)
		}
		days := 0
		for _, v := range years {
			if v == y {
				days++
			}
		}
		if got := stats.Ops[len(stats.Ops)-1].ProbeLookups; got != days {
			t.Errorf("%d: %d lookups, want one per date of the year (%d)", y, got, days)
		}
	}

	top := uint64(1)<<ds.Cat.Table("date").Bits("d_datekey") - 1 // the widest date key
	shapes := []string{
		byMonth + "lo_orderdate = 19940315" + monthly,
		byMonth + "lo_orderdate < 19930101" + monthly,
		byMonth + "lo_orderdate > 19980601" + monthly,
		byMonth + "lo_orderdate >= 19980601" + monthly,
		byMonth + fmt.Sprintf("lo_orderdate = %d", top) + monthly,
		byMonth + fmt.Sprintf("lo_orderdate = %d", top+1) + monthly,
		byMonth + fmt.Sprintf("lo_orderdate < %d", top) + monthly,
		byMonth + fmt.Sprintf("lo_orderdate < %d", top+1) + monthly,
		byMonth + fmt.Sprintf("lo_orderdate > %d", top) + monthly,
		byMonth + fmt.Sprintf("lo_orderdate >= %d", top) + monthly,
		byMonth + fmt.Sprintf("lo_orderdate >= %d", top+1) + monthly,
		byMonth + "lo_orderdate in (19940101, 19950505, 19940101)" + monthly,
		byMonth + "d_weeknuminyear = 6 and lo_orderdate between 19930101 and 19951231" + monthly,
		byMonth + "lo_orderdate >= 19940101 and lo_orderdate < 19940701" + monthly,
		"select c_nation, d_year, sum(lo_revenue) as r from lineorder, customer, `date` " +
			"where lo_custkey = c_custkey and lo_orderdate = d_datekey and c_region = 'ASIA' " +
			"and lo_orderdate < 19940101 group by c_nation, d_year;",
	}
	for _, text := range shapes {
		check(text)
	}

	// An assist: the customer region is the more selective restriction,
	// so the date range filters the fan-out instead of driving it.
	stmt, _ := check(asia + "lo_orderdate between 19930101 and 19931231 group by c_nation;")
	if sj, ok := stmt.Plan.Root.(*core.SelectJoin); !ok || len(sj.Assists) != 1 || len(factPreds(sj)) != 0 {
		t.Errorf("assist text planned %s, want a select-join with one assist and no main predicate", describe(stmt.Plan.Root))
	}

	// Two dimensions on one foreign key: the restriction goes to both, and
	// the plan does not depend on map order.
	stmt, _ = check(twoDims)
	plan := describe(stmt.Plan.Root)
	if !strings.HasPrefix(plan, "σ⋈") {
		t.Errorf("two dimensions on one key planned %s, want a select-join", plan)
	}
	for i := 0; i < 20; i++ {
		again, err := planner.PlanSQL(twoDims)
		if err != nil {
			t.Fatal(err)
		}
		if got := describe(again.Plan.Root); got != plan {
			t.Fatalf("re-plan %d: %s, want %s", i, got, plan)
		}
	}
}

// describe renders an operator tree with its inputs, predicates and probe
// references: two plans with the same description compute alike.
func describe(op core.Operator) string {
	s := op.Label()
	switch o := op.(type) {
	case *core.Selection:
		s += fmt.Sprint(o.Pred, o.Preds)
	case *core.SelectJoin:
		s += fmt.Sprint(o.Pred, o.ProbeMainWith, o.Preds)
		for _, a := range o.Assists {
			s += fmt.Sprint(a.ProbeWith)
		}
	}
	for _, c := range op.Children() {
		s += "(" + describe(c) + ")"
	}
	return s
}

// factPreds returns a select-join's predicates on its main input, the
// fact.
func factPreds(sj *core.SelectJoin) []core.AttrPred {
	var preds []core.AttrPred
	for _, p := range sj.Preds {
		if p.Ref.Input == 1 {
			preds = append(preds, p)
		}
	}
	return preds
}

// twoDims joins two dimensions on one foreign key of the fact.
const twoDims = "select sum(lo_revenue) as r from lineorder, customer, supplier " +
	"where lo_custkey = c_custkey and lo_custkey = s_suppkey and lo_custkey < 40;"

// Star texts with no restriction on any dimension, direct or through a
// foreign key: the main dimension drives the select-join over its whole
// base index.
const (
	rollupYear       = "select d_year, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey group by d_year;"
	rollupYearNation = "select d_year, c_nation, sum(lo_revenue) as r from lineorder, `date`, customer " +
		"where lo_orderdate = d_datekey and lo_custkey = c_custkey group by d_year, c_nation;"
	groupByMainKey = "select d_datekey, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey group by d_datekey;"
)

// TestEveryStarTextPlansSelectJoin: the planner builds one star shape.
// Every text that joins a dimension, restricted or not, plans a
// *core.SelectJoin with the main dimension as input 0; an unrestricted one
// has no predicate and prints as a join. Every assist probes with a
// payload column of the fact index, also where two dimensions join on one
// foreign key, the main dimension's. Each answers what the column baseline
// answers, on 1 and 2 workers.
func TestEveryStarTextPlansSelectJoin(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	planner := sql.NewPlanner(ds.Cat)
	var envs []*core.Env
	for _, workers := range []int{1, 2} {
		env, err := core.NewEnv(core.EnvConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		envs = append(envs, env)
	}
	texts := map[string]bool{rollupYear: false, rollupYearNation: false, groupByMainKey: false, twoDims: true}
	for _, text := range ssb.SQLTexts {
		texts[text] = true
	}
	for text, restricted := range texts {
		stmt, err := planner.PlanSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		sj, ok := stmt.Plan.Root.(*core.SelectJoin)
		if !ok {
			t.Fatalf("%s: planned %s, want a select-join", text, describe(stmt.Plan.Root))
		}
		if label := sj.Label(); (sj.Pred != nil) != restricted || strings.HasPrefix(label, "σ") != restricted {
			t.Errorf("%s: predicate %v, label %s; want a predicate %t", text, sj.Pred, label, restricted)
		}
		fact := sj.Main.(*core.Base).Table
		for i, a := range sj.Assists {
			if fact.Col(a.ProbeWith) < 0 {
				t.Errorf("%s: assist %d probes with %q, not a payload column of %s", text, i, a.ProbeWith, fact.Name)
			}
		}
		want, err := ds.RunColumnSQL(text)
		if err != nil {
			t.Fatalf("%s: baseline: %v", text, err)
		}
		if len(want.Rows) == 0 && !restricted { // Q3.4 finds no row at SF 0.01
			t.Fatalf("%s: fixture: the baseline answers no rows", text)
		}
		for i, env := range envs {
			rows, _, err := stmt.Run(context.Background(), env, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if !slices.Equal(rows.Attrs, want.Attrs) || !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
				t.Fatalf("%s on %d workers:\nengine   %v %d rows %v\nbaseline %v %d rows %v", text, i+1,
					rows.Attrs, len(rows.Rows), head(rows.Rows), want.Attrs, len(want.Rows), head(want.Rows))
			}
		}
	}
}
