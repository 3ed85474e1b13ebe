package sql_test

import (
	"context"
	"slices"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// TestGroupByJoinKeyReadsForeignKey: a GROUP BY on an assisting
// dimension's join key reads the fact's foreign key, equal to it under the
// join predicate, so the dimension's selection carries no column and its
// assist is a filter-only bit test at the fan-out instead of a lookup per
// fact row (2 053 lookups at SF 0.01 while the supplier carried its key).
// The answer, its attribute names and its key width stay the dimension's.
func TestGroupByJoinKeyReadsForeignKey(t *testing.T) {
	const text = "select s_suppkey, sum(lo_revenue) as r from lineorder, supplier, `date` " +
		"where lo_suppkey = s_suppkey and lo_orderdate = d_datekey and d_year = 1993 and s_region = 'ASIA' " +
		"group by s_suppkey;"
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	stmt, err := sql.NewPlanner(ds.Cat).PlanSQL(text)
	if err != nil {
		t.Fatal(err)
	}
	rows, stats, err := stmt.Run(context.Background(), env, core.Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.RunColumnSQL(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("fixture: the baseline answers no rows")
	}
	if !slices.Equal(rows.Attrs, want.Attrs) || !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
		t.Fatalf("engine %v %v, baseline %v %v", rows.Attrs, rows.Rows, want.Attrs, want.Rows)
	}
	if root := stats.Ops[len(stats.Ops)-1]; root.ProbeLookups >= 2053 {
		t.Errorf("star join issued %d lookups, want fewer than 2053", root.ProbeLookups)
	}
	keyBits := ds.Cat.Table("supplier").Bits("s_suppkey")
	if out := stmt.Plan.Root.(*core.SelectJoin).Out.Key; !slices.Equal(out.Attrs, []string{"s_suppkey"}) || !slices.Equal(out.Bits, []uint{keyBits}) {
		t.Errorf("output key %v %v, want [s_suppkey] [%d]", out.Attrs, out.Bits, keyBits)
	}
}
