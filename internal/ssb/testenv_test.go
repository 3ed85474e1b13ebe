package ssb

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qppt/internal/core"
	"qppt/internal/sql"
)

// newTestEnv builds the Env a test runs its plans in and, when the test
// ends, checks that the Env leaves nothing behind: Close succeeds, the
// spill directory is empty, and no scheduler helper goroutine is running.
func newTestEnv(t testing.TB, cfg core.EnvConfig) *core.Env {
	t.Helper()
	if cfg.MemBudget > 0 && cfg.SpillDir == "" {
		cfg.SpillDir = t.TempDir()
	}
	env, err := core.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Close(); err != nil {
			t.Errorf("env.Close: %v", err)
		}
		if cfg.SpillDir != "" {
			left, err := os.ReadDir(cfg.SpillDir)
			if err != nil {
				t.Errorf("spill dir after Close: %v", err)
			}
			for _, e := range left {
				t.Errorf("spill file left behind: %s", e.Name())
			}
		}
		if n := schedulerGoroutines(); n > 0 {
			t.Errorf("%d scheduler goroutines still running after the test", n)
		}
	})
	return env
}

// schedulerGoroutines counts the goroutines the core scheduler started
// that are still alive. A helper has done its last piece of work when the
// plan returns but may not have exited yet, so a nonzero count gets a
// moment to drain before it is reported.
func schedulerGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for try := 0; try < 100; try++ {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if n = strings.Count(stacks, "created by qppt/internal/core.(*Scheduler)."); n == 0 {
			return 0
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// A runConfig is one leg of a test matrix: the Env a plan runs in and the
// per-query options it runs with.
type runConfig struct {
	env  core.EnvConfig
	exec core.Options
}

// A planCase is one plan the e2e suites run: a SQL text as the planner
// plans it, or a hand-built figures.go plan. qid names the
// SSB query whose answer it returns ("" for a roll-up).
type planCase struct {
	name, qid string
	run       func(ctx context.Context, env *core.Env, exec core.Options) ([][]uint64, *core.PlanStats, error)
}

// sqlCase plans text once; each run executes the statement.
func sqlCase(t testing.TB, ds *Dataset, name, qid, text string) planCase {
	t.Helper()
	stmt, err := sql.NewPlanner(ds.Cat).PlanSQL(text)
	if err != nil {
		t.Fatalf("%s: plan: %v", name, err)
	}
	return planCase{name, qid, func(ctx context.Context, env *core.Env, exec core.Options) ([][]uint64, *core.PlanStats, error) {
		rows, stats, err := stmt.Run(ctx, env, exec)
		if err != nil {
			return nil, nil, err
		}
		return rows.Rows, stats, nil
	}}
}

// planOf wraps a hand-built plan; a run returns its result index's rows.
func planOf(name, qid string, plan *core.Plan) planCase {
	return planCase{name, qid, func(ctx context.Context, env *core.Env, exec core.Options) ([][]uint64, *core.PlanStats, error) {
		out, stats, err := env.Run(ctx, plan, exec)
		if err != nil {
			return nil, nil, err
		}
		rows := core.Extract(out).Rows
		out.Release()
		return rows, stats, nil
	}}
}

// sqlCases plans the SSB texts of qids.
func sqlCases(t testing.TB, ds *Dataset, qids ...string) []planCase {
	var cs []planCase
	for _, qid := range qids {
		cs = append(cs, sqlCase(t, ds, "Q"+qid, qid, SQLTexts[qid]))
	}
	return cs
}

// rollups restrict the fact table by a year range on its date key, like
// benchmark/'s ssb-par texts. No SSB text's operator fans out to a second worker (each is driven by a selection a few
// dictionary codes wide); these roll-ups' operators do. rollup2's range is
// on the date join's foreign key, so the planner moves it onto d_datekey
// and rollup2 is a select-join over the two years' 730 dates.
var rollups = []string{
	"select lo_suppkey, sum(lo_revenue) as r from lineorder where lo_orderdate between 19930101 and 19951231 group by lo_suppkey order by lo_suppkey;",
	"select d_yearmonthnum, sum(lo_revenue) as r from lineorder, `date` where lo_orderdate = d_datekey and lo_orderdate between 19940101 and 19951231 group by d_yearmonthnum order by d_yearmonthnum;",
	"select c_nation, sum(lo_revenue) as r from lineorder, customer where lo_custkey = c_custkey and c_region = 'ASIA' and lo_orderdate between 19920101 and 19961231 group by c_nation order by c_nation;",
}

func rollupCases(t testing.TB, ds *Dataset) []planCase {
	var cs []planCase
	for i, text := range rollups {
		cs = append(cs, sqlCase(t, ds, fmt.Sprintf("rollup%d", i+1), "", text))
	}
	return cs
}

// figureCases are the figures.go plans. Theirs are the only SSB plans with
// an intermediate that is not a dimension selection.
func figureCases(ds *Dataset) []planCase {
	cs := []planCase{planOf("fig8/without-select-join", "1.1", ds.Figure8Plan())}
	for arity := 2; arity <= 5; arity++ {
		cs = append(cs, planOf(fmt.Sprintf("fig9/%d-way", arity), "4.1", ds.Figure9Plan(arity)))
	}
	return cs
}

// allCases is every suite's default matrix: the thirteen texts, the
// roll-ups and the figures.go plans.
func allCases(t testing.TB, ds *Dataset) []planCase {
	cs := append(sqlCases(t, ds, QueryIDs...), rollupCases(t, ds)...)
	return append(cs, figureCases(ds)...)
}

// runSQL runs one SSB text in a fresh leak-checked Env. Its rows come back
// ordered as the baseline engines order theirs: by the text's ORDER BY,
// ties broken by the remaining columns.
func runSQL(t testing.TB, ds *Dataset, qid string) *QueryResult {
	t.Helper()
	stmt, err := sql.NewPlanner(ds.Cat).PlanSQL(SQLTexts[qid])
	if err != nil {
		t.Fatalf("Q%s: plan: %v", qid, err)
	}
	rows, _, err := stmt.Run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
	if err != nil {
		t.Fatalf("Q%s: %v", qid, err)
	}
	st, err := ds.compile(SQLTexts[qid])
	if err != nil {
		t.Fatalf("Q%s: %v", qid, err)
	}
	return &QueryResult{Attrs: rows.Attrs, Rows: st.result(rows.Rows).Rows}
}

// isDimSelection reports whether an operator label is a dimension selection
// (σ→σ_date, σ→σ_part, …), the only intermediate an SSB text's plan
// builds.
func isDimSelection(label string) bool {
	table, ok := strings.CutPrefix(label, "σ→σ_")
	return ok && table != "lineorder"
}

// halfPeak as a leg's EnvConfig.MemBudget stands for half the peak
// operator-output footprint of the case's plan, measured from the suite's
// reference run: a budget the plan is certain to exceed.
const halfPeak = -1

// A suite is one end-to-end equivalence matrix: for every case, each leg
// must reproduce the rows of the reference run — a serial, unbudgeted,
// fresh Env whose chunk pool no earlier plan filled — bit-identically.
// (TestCrossEngineEquivalence holds such runs to the baseline engines.) A suite with a leg of Workers > 1
// must see some operator run on more than one worker, and a suite with a
// budgeted leg must see an intermediate other than a dimension selection
// spill, or the matrix did not test what it names.
type suite struct {
	cases []planCase
	legs  []runConfig
	// check, if set, makes the suite's extra assertions on one leg's run
	// (halfPeak already resolved in leg; stats are always collected).
	check func(t *testing.T, c planCase, leg runConfig, got [][]uint64, stats *core.PlanStats)
}

// runSuite is the loop the e2e suites share.
func runSuite(t *testing.T, s suite) {
	t.Helper()
	ctx := context.Background()
	var parallel, budgeted, fannedOut, spilledFact bool
	for _, c := range s.cases {
		ref, refStats, err := c.run(ctx, newTestEnv(t, core.EnvConfig{}), core.Options{CollectStats: true})
		if err != nil {
			t.Fatalf("%s reference: %v", c.name, err)
		}
		for _, leg := range s.legs {
			parallel = parallel || leg.env.Workers > 1
			budgeted = budgeted || leg.env.MemBudget != 0
			if leg.env.MemBudget == halfPeak {
				peak := 0
				for _, op := range refStats.Ops {
					peak = max(peak, op.OutBytes)
				}
				if peak == 0 {
					t.Fatalf("%s: no operator footprint measured", c.name)
				}
				leg.env.MemBudget = max(int64(peak)/2, 1)
			}
			leg.exec.CollectStats = true
			got, stats, err := c.run(ctx, newTestEnv(t, leg.env), leg.exec)
			if err != nil {
				t.Fatalf("%s %+v: %v", c.name, leg, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s %+v: result differs from the reference (%d vs %d rows)", c.name, leg, len(got), len(ref))
			}
			for _, op := range stats.Ops {
				fannedOut = fannedOut || op.Workers > 1
				spilledFact = spilledFact || op.Spills > 0 && !isDimSelection(op.Label)
			}
			if s.check != nil {
				s.check(t, c, leg, got, stats)
			}
		}
	}
	if parallel && !fannedOut {
		t.Error("no operator ran on more than one worker in any parallel leg")
	}
	if budgeted && !spilledFact {
		t.Error("no intermediate other than a dimension selection spilled in any budgeted leg")
	}
}

// Equal reports whether two results are identical.
func (r *QueryResult) Equal(o *QueryResult) bool {
	if len(r.Attrs) != len(o.Attrs) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Attrs {
		if r.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range r.Rows {
		for c := range r.Rows[i] {
			if r.Rows[i][c] != o.Rows[i][c] {
				return false
			}
		}
	}
	return true
}
