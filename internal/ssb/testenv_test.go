package ssb

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qppt/internal/core"
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

// runQPPT runs one query's hand-built plan in a fresh leak-checked Env.
func runQPPT(t testing.TB, ds *Dataset, qid string, opt PlanOptions, rc runConfig) (*QueryResult, *core.PlanStats, error) {
	t.Helper()
	return ds.RunQPPT(context.Background(), newTestEnv(t, rc.env), qid, opt, rc.exec)
}

// halfPeak as a leg's EnvConfig.MemBudget stands for half the peak
// intermediate-index footprint of the query's plan, measured from the
// suite's reference run: a budget the plan is certain to exceed.
const halfPeak = -1

// A suite is one end-to-end equivalence matrix over the SSB queries: for
// every query and plan shape, each leg must reproduce the rows of the
// reference run — a serial, unbudgeted, non-recycling Env — bit-identically.
type suite struct {
	qids   []string // nil = all thirteen
	shapes []PlanOptions
	legs   []runConfig
	// check, if set, makes the suite's extra assertions on one leg's run
	// (halfPeak already resolved in leg).
	check func(t *testing.T, qid string, shape PlanOptions, leg runConfig, got *QueryResult, stats *core.PlanStats)
}

// runSuite is the loop the e2e suites share.
func runSuite(t *testing.T, ds *Dataset, s suite) {
	t.Helper()
	qids := s.qids
	if qids == nil {
		qids = QueryIDs
	}
	for _, qid := range qids {
		for _, shape := range s.shapes {
			ref, refStats, err := runQPPT(t, ds, qid, shape, runConfig{exec: core.Options{CollectStats: true}})
			if err != nil {
				t.Fatalf("Q%s %+v reference: %v", qid, shape, err)
			}
			for _, leg := range s.legs {
				if leg.env.MemBudget == halfPeak {
					peak := 0
					for _, op := range refStats.Ops {
						peak = max(peak, op.OutBytes)
					}
					if peak == 0 {
						t.Fatalf("Q%s %+v: no intermediate footprint measured", qid, shape)
					}
					leg.env.MemBudget = max(int64(peak)/2, 1)
				}
				got, stats, err := runQPPT(t, ds, qid, shape, leg)
				if err != nil {
					t.Fatalf("Q%s %+v %+v: %v", qid, shape, leg, err)
				}
				if !reflect.DeepEqual(ref.Rows, got.Rows) {
					t.Errorf("Q%s %+v %+v: result differs from the reference (%d vs %d rows)",
						qid, shape, leg, len(got.Rows), len(ref.Rows))
				}
				if s.check != nil {
					s.check(t, qid, shape, leg, got, stats)
				}
			}
		}
	}
}

// bothShapes are the composed (select-join) and decomposed plan shapes.
var bothShapes = []PlanOptions{{UseSelectJoin: true}, {UseSelectJoin: false}}
