package sql_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// TestDenseFoldSSBTexts pins which of the 13 SSB texts, and of five
// roll-ups with the year as a range on the fact's date key, fold their
// GROUP BY in a flat array at SF 0.2, and with how many slots: the product
// of the group attributes' catalog spans, when it is small enough. The
// others fold into the output index. Every answer is the column
// baseline's, on 1 and 2 workers.
func TestDenseFoldSSBTexts(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.2, Seed: 1})
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
	const y = 1994
	rollups := []string{
		fmt.Sprintf("select sum(lo_extendedprice*lo_discount) as revenue from lineorder where lo_orderdate between %d0101 and %d1231 and lo_discount between 1 and 3 and lo_quantity < 25;", y, y),
		fmt.Sprintf("select sum(lo_extendedprice*lo_discount) as revenue from lineorder where lo_orderdate between %d0101 and %d1231 and lo_discount between 4 and 6 and lo_quantity between 26 and 35;", y, y),
		fmt.Sprintf("select lo_suppkey, sum(lo_revenue) as r from lineorder where lo_orderdate between %d0101 and %d1231 group by lo_suppkey;", y, y),
		fmt.Sprintf("select d_yearmonthnum, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey and lo_orderdate between %d0101 and %d1231 group by d_yearmonthnum;", y, y),
		fmt.Sprintf("select lo_custkey, sum(lo_revenue) as r from lineorder where lo_orderdate between %d0101 and %d0331 group by lo_custkey;", y, y),
	}
	texts := map[string]string{}
	for _, q := range ssb.QueryIDs {
		texts["Q"+q] = ssb.SQLTexts[q]
	}
	for i, text := range rollups {
		texts[fmt.Sprintf("roll-up %d", i)] = text
	}
	slots := map[string]int{
		"Q1.1": 1, "Q1.2": 1, "Q1.3": 1,
		"Q2.1": 7 * 1000, "Q2.2": 7 * 1000, "Q2.3": 7 * 1000, // d_year, p_brand1
		"Q3.1": 25 * 25 * 7,             // c_nation, s_nation, d_year
		"Q3.2": 0, "Q3.3": 0, "Q3.4": 0, // cities: 250 × 250 × 7
		"Q4.1":      7 * 25,      // d_year, c_nation
		"Q4.2":      7 * 25 * 25, // d_year, s_nation, p_category
		"Q4.3":      0,           // d_year, s_city, p_brand1
		"roll-up 0": 1, "roll-up 1": 1,
		"roll-up 2": 400,  // lo_suppkey
		"roll-up 3": 612,  // d_yearmonthnum, 199201–199812
		"roll-up 4": 6000, // lo_custkey
	}
	for name, text := range texts {
		want, err := ds.RunColumnSQL(text)
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		stmt, err := planner.PlanSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, env := range envs {
			rows, stats, err := stmt.Run(context.Background(), env, core.Options{CollectStats: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(rows.Attrs, want.Attrs) || !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
				t.Fatalf("%s on %d workers:\nengine   %v %d rows %v\nbaseline %v %d rows %v", name, i+1,
					rows.Attrs, len(rows.Rows), head(rows.Rows), want.Attrs, len(want.Rows), head(want.Rows))
			}
			if got := stats.Ops[len(stats.Ops)-1].Slots; got != slots[name] {
				t.Errorf("%s on %d workers: %d slots, want %d", name, i+1, got, slots[name])
			}
		}
	}
}
