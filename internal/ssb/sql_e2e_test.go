package ssb

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
)

func TestSQLStatsAndDecode(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	stmt, err := planner.PlanSQL(SQLTexts["2.3"])
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
		"select sum(lo_revenue) from lineorder, customer",                                                         // no join condition
		"select sum(c_custkey) from lineorder, customer where lo_custkey = c_custkey",                             // non-fact aggregate
		"select lo_quantity from lineorder, customer where lo_custkey = c_custkey",                                // ungrouped column
		"select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey and p_brand1 = 'X'",         // unknown column
		"select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey order by lo_quantity",       // order by non-output
		"select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey and lo_suppkey = c_custkey", // two joins to one dimension
	}
	for _, src := range bad {
		if stmt, err := planner.PlanSQL(src); err == nil {
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
		stmt, err := planner.PlanSQL(src)
		if err == nil || !strings.Contains(err.Error(), `table "part" is not joined (cross products are not supported)`) {
			t.Errorf("%q: planned=%v err=%v, want the not-joined error", src, stmt != nil, err)
		}
	}
}

// TestSQLTableListedTwiceIsAnError: standard SQL rejects a FROM list that
// names one table twice without aliases; planning must not answer as if
// the table were listed once.
func TestSQLTableListedTwiceIsAnError(t *testing.T) {
	planner := sql.NewPlanner(testDataset(t).Cat)
	for _, src := range []string{
		"select sum(lo_revenue) from lineorder, customer, customer where lo_custkey = c_custkey and c_region = 'ASIA'",
		"select sum(lo_revenue) from lineorder, customer, customer where lo_custkey = c_custkey",
		"select sum(lo_revenue) from lineorder, lineorder",
	} {
		stmt, err := planner.PlanSQL(src)
		if err == nil || !strings.Contains(err.Error(), "listed twice in FROM") {
			t.Errorf("%q: planned=%v err=%v, want the listed-twice error", src, stmt != nil, err)
		}
	}
}

// TestSQLNumericLiteralOnStringColumn: a dictionary-encoded string column
// compares against string literals only. A number there would compare
// dictionary codes — c_region < 1 would select AFRICA — so it is an error
// wherever the restriction lands: the key predicate of a selection, a
// residual test, or a set of literals that mixes both kinds.
func TestSQLNumericLiteralOnStringColumn(t *testing.T) {
	planner := sql.NewPlanner(testDataset(t).Cat)
	const star = "select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey and "
	for _, tc := range []struct{ where, errLike string }{
		{"c_region < 1", "numeric predicate on string column c_region"},
		{"c_region = 5", "numeric predicate on string column c_region"},
		{"c_region between 0 and 2", "numeric predicate on string column c_region"},
		{"c_region in (1, 2)", "numeric predicate on string column c_region"},
		{"c_region = 'ASIA' and c_nation = 3", "numeric predicate on string column c_nation"},
		{"c_region in ('ASIA', 5)", "IN list mixes string and number literals"},
		{"(c_region = 'ASIA' or c_region = 5)", "OR chain mixes string and number literals"},
		{"(c_region = 5 or c_region = 'ASIA')", "OR chain mixes string and number literals"},
	} {
		stmt, err := planner.PlanSQL(star + tc.where)
		if err == nil || !strings.Contains(err.Error(), tc.errLike) {
			t.Errorf("%q: planned=%v err=%v, want an error mentioning %q", tc.where, stmt != nil, err, tc.errLike)
		}
	}
}

// TestSQLGroupByWithoutAggregate: a GROUP BY with no aggregate returns one
// row per group — the key columns of the same text with a sum added — not
// one row per input row.
func TestSQLGroupByWithoutAggregate(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct{ keys, from string }{
		{"d_year", "lineorder, date where lo_orderdate = d_datekey"},
		{"lo_quantity", "lineorder"},
		{"c_nation", "lineorder, customer where lo_custkey = c_custkey and c_region = 'ASIA'"},
		{"d_year, c_nation", "lineorder, customer, date where lo_custkey = c_custkey and lo_orderdate = d_datekey"},
	} {
		bare := "select " + tc.keys + " from " + tc.from + " group by " + tc.keys
		summed := "select " + tc.keys + ", sum(lo_revenue) from " + tc.from + " group by " + tc.keys
		got, _, err := sqlCase(t, ds, bare, "", bare).run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
		if err != nil {
			t.Fatalf("%q: %v", bare, err)
		}
		want, _, err := sqlCase(t, ds, summed, "", summed).run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
		if err != nil {
			t.Fatalf("%q: %v", summed, err)
		}
		for i := range want {
			want[i] = want[i][:len(want[i])-1]
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %d rows %v, want the %d groups %v", bare, len(got), head(got), len(want), head(want))
		}
	}
}

// TestSQLGroupByKeyTooWide: GROUP BY columns whose widths sum past 64 bits
// cannot compose one result key. Planning must refuse them: a run would
// panic building the result index, on a scheduler goroutine when the Env
// has workers, where no caller's recover reaches it.
func TestSQLGroupByKeyTooWide(t *testing.T) {
	ds := testDataset(t)
	for _, src := range []string{
		"select sum(lo_revenue) from lineorder group by lo_revenue, lo_extendedprice, lo_supplycost, lo_orderdate",
		"select lo_revenue, lo_extendedprice, lo_supplycost, lo_orderdate from lineorder, customer where lo_custkey = c_custkey and c_region = 'ASIA' group by lo_revenue, lo_extendedprice, lo_supplycost, lo_orderdate",
	} {
		stmt, err := sql.NewPlanner(ds.Cat).PlanSQL(src)
		if err == nil {
			_, _, err = stmt.Run(context.Background(), newTestEnv(t, core.EnvConfig{Workers: 2}), core.Options{})
			t.Errorf("%q planned (run: %v), want a planning error", src, err)
			continue
		}
		if !strings.Contains(err.Error(), "GROUP BY key too wide") {
			t.Errorf("%q: %v, want the GROUP BY key error", src, err)
		}
	}
}

func TestSQLSingleTable(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	stmt, err := planner.PlanSQL(
		`select sum(lo_revenue) as r from lineorder where lo_quantity < 10 and lo_discount = 5`)
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
		 group by lo_discount order by lo_discount`)
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
