package ssb

import (
	"context"
	"strings"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
)

// TestSQLMatchesHandBuiltPlans runs the paper's SQL text for every SSB
// query through the SQL front end and compares against the column engine's
// results — end-to-end coverage of lexer, parser, planner and executor.
func TestSQLMatchesHandBuiltPlans(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	for _, qid := range QueryIDs {
		for _, useSJ := range []bool{true, false} {
			stmt, err := planner.PlanSQL(SQLTexts[qid], sql.Options{UseSelectJoin: useSJ})
			if err != nil {
				t.Fatalf("Q%s (selectjoin=%v): plan: %v", qid, useSJ, err)
			}
			rows, _, err := stmt.Run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
			if err != nil {
				t.Fatalf("Q%s (selectjoin=%v): run: %v", qid, useSJ, err)
			}
			got := &QueryResult{Attrs: querySchema(qid), Rows: normalizeSQL(qid, rows.Rows)}
			want, err := ds.RunColumn(qid)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("Q%s (selectjoin=%v): SQL and column engine disagree: %d vs %d rows\nsql: %v\ncol: %v",
					qid, useSJ, len(got.Rows), len(want.Rows), head(got.Rows), head(want.Rows))
			}
		}
	}
}

// normalizeSQL projects SQL results (SELECT-item order) into the shared
// normalized layout and applies the full-tiebreak ordering.
func normalizeSQL(qid string, rows [][]uint64) [][]uint64 {
	switch qid {
	case "2.1", "2.2", "2.3":
		rows = project(rows, 1, 2, 0) // [sum, year, brand] → [year, brand, sum]
		orderRows(rows, 0, 1)
	case "3.1", "3.2", "3.3", "3.4":
		rows = project(rows, 0, 1, 2, 3)
		orderRows(rows, 2, -4)
	case "4.1":
		rows = project(rows, 0, 1, 2)
		orderRows(rows, 0, 1)
	case "4.2", "4.3":
		rows = project(rows, 0, 1, 2, 3)
		orderRows(rows, 0, 1, 2)
	}
	return rows
}

func TestSQLStatsAndDecode(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	stmt, err := planner.PlanSQL(SQLTexts["2.3"], sql.Options{UseSelectJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, stats, err := stmt.Run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || len(stats.Ops) == 0 {
		t.Fatal("no stats collected")
	}
	if len(rows.Attrs) != 3 {
		t.Fatalf("attrs = %v", rows.Attrs)
	}
	if len(rows.Rows) > 0 {
		brand := rows.Decode(0, 2)
		if len(brand) < 5 || brand[:5] != "MFGR#" {
			t.Errorf("decoded brand = %q", brand)
		}
		year := rows.Decode(0, 1)
		if year < "1992" || year > "1998" {
			t.Errorf("decoded year = %q", year)
		}
	}
}

func TestSQLPlannerErrors(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	bad := []string{
		"select sum(lo_revenue) from nosuch",
		"select sum(lo_revenue) from lineorder, customer",                                                   // no join condition
		"select sum(c_custkey) from lineorder, customer where lo_custkey = c_custkey",                       // non-fact aggregate
		"select lo_quantity from lineorder, customer where lo_custkey = c_custkey",                          // ungrouped column
		"select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey and p_brand1 = 'X'",   // unknown column
		"select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey order by lo_quantity", // order by non-output
	}
	for _, src := range bad {
		if stmt, err := planner.PlanSQL(src, sql.Options{}); err == nil {
			t.Errorf("accepted %q (plan: %v)", src, stmt.Attrs)
		}
	}
}

// TestSQLUnjoinedTableIsAnError: a FROM table no join condition reaches
// asks for a cross product, which no QPPT operator builds. Planning must
// refuse it — neither drop the table (an answer off by a factor of its
// row count) nor look up its missing dimension (a panic).
func TestSQLUnjoinedTableIsAnError(t *testing.T) {
	planner := sql.NewPlanner(testDataset(t).Cat)
	for _, src := range []string{
		"select sum(lo_revenue) from lineorder, date, part where lo_orderdate = d_datekey group by p_brand1",
		"select sum(lo_revenue) from lineorder, date, part where lo_orderdate = d_datekey",
		"select sum(lo_revenue) from lineorder, date, part where lo_orderdate = d_datekey and p_brand1 = 'MFGR#2221'",
		"select sum(lo_revenue) from lineorder, part",
	} {
		for _, useSJ := range []bool{true, false} {
			stmt, err := planner.PlanSQL(src, sql.Options{UseSelectJoin: useSJ})
			if err == nil || !strings.Contains(err.Error(), `table "part" is not joined (cross products are not supported)`) {
				t.Errorf("%q (selectjoin=%v): planned=%v err=%v, want the not-joined error", src, useSJ, stmt != nil, err)
			}
		}
	}
}

func TestSQLSingleTable(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	stmt, err := planner.PlanSQL(
		`select sum(lo_revenue) as r from lineorder where lo_quantity < 10 and lo_discount = 5`,
		sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := stmt.Run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cols := ds.Raw["lineorder"]
	var want uint64
	for i := range cols["lo_revenue"] {
		if cols["lo_quantity"][i] < 10 && cols["lo_discount"][i] == 5 {
			want += cols["lo_revenue"][i]
		}
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0] != want {
		t.Fatalf("single-table sum = %v, want %d", rows.Rows, want)
	}
}

func TestSQLGroupByFactColumn(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	stmt, err := planner.PlanSQL(
		`select lo_discount, sum(lo_revenue) as r from lineorder, customer
		 where lo_custkey = c_custkey and c_region = 'ASIA'
		 group by lo_discount order by lo_discount`,
		sql.Options{UseSelectJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := stmt.Run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 11 { // discounts 0..10
		t.Fatalf("%d groups, want 11", len(rows.Rows))
	}
	// Oracle.
	asia, _ := ds.Customer.Dict("c_region").Code("ASIA")
	region := ds.Raw["customer"]["c_region"]
	want := map[uint64]uint64{}
	cols := ds.Raw["lineorder"]
	for i := range cols["lo_revenue"] {
		if region[cols["lo_custkey"][i]-1] == asia {
			want[cols["lo_discount"][i]] += cols["lo_revenue"][i]
		}
	}
	for _, r := range rows.Rows {
		if want[r[0]] != r[1] {
			t.Fatalf("discount %d: %d, want %d", r[0], r[1], want[r[0]])
		}
	}
}
