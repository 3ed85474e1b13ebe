package ssb

import (
	"testing"

	"qppt/internal/core"
)

// intermediates counts the operator outputs of a finished plan that a later
// operator read back: every output but the root's. Only those ever enter
// the spill manager.
func intermediates(stats *core.PlanStats) int { return len(stats.Ops) - 1 }

// TestSpillBudgetMatchesUnbudgeted is the spilling acceptance test: every
// case runs under a memory budget of half its largest operator output,
// spills and restores what a later operator reads back (nonzero counters
// in PlanStats) — and nothing when the plan is a single operator, whose
// output is the caller's — and produces rows bit-identical to the
// unbudgeted run: spilling is a pure storage decision.
func TestSpillBudgetMatchesUnbudgeted(t *testing.T) {
	ds := testDataset(t)
	runSuite(t, suite{
		cases: allCases(t, ds),
		legs:  []runConfig{{env: core.EnvConfig{MemBudget: halfPeak}}},
		check: func(t *testing.T, c planCase, leg runConfig, _ [][]uint64, stats *core.PlanStats) {
			budget := leg.env.MemBudget
			if want := intermediates(stats) > 0; (stats.Spills > 0) != want || (stats.Restores > 0) != want {
				t.Errorf("%s budget=%d: spills=%d restores=%d with %d intermediates",
					c.name, budget, stats.Spills, stats.Restores, intermediates(stats))
			}
			if stats.MemBudget != budget {
				t.Errorf("%s: stats budget = %d, want %d", c.name, stats.MemBudget, budget)
			}
		},
	})
}

// Morsel-driven parallel execution under a budget: branches resolve (and
// pin/unpin their inputs) concurrently, the merged sharded outputs spill
// shard-by-shard, and the result must still be bit-identical.
func TestSpillBudgetUnderParallelism(t *testing.T) {
	ds := testDataset(t)
	cases := sqlCases(t, ds, "1.1", "2.3", "3.1", "4.1")
	runSuite(t, suite{
		cases: append(append(cases, rollupCases(t, ds)...), figureCases(ds)...),
		legs: []runConfig{{
			core.EnvConfig{Workers: 3, MemBudget: 1}, // everything cold spills
			core.Options{},
		}},
		check: func(t *testing.T, c planCase, _ runConfig, _ [][]uint64, stats *core.PlanStats) {
			if intermediates(stats) > 0 && (stats.Spills == 0 || stats.Restores == 0) {
				t.Errorf("%s: parallel run recorded spills=%d restores=%d", c.name, stats.Spills, stats.Restores)
			}
		},
	})
}

// TestSpillRecycleMatches is the memory-lifecycle acceptance test: every
// case runs serially and under morsel parallelism, under a budget below
// the plan's peak operator footprint — and must stay bit-identical to the
// plain run while the recycler counters prove the pool actually engaged.
func TestSpillRecycleMatches(t *testing.T) {
	ds := testDataset(t)
	sawReuse := false
	leg := func(workers int) runConfig {
		return runConfig{env: core.EnvConfig{Workers: workers, MemBudget: halfPeak}}
	}
	runSuite(t, suite{
		cases: allCases(t, ds),
		legs:  []runConfig{leg(1), leg(3)},
		check: func(t *testing.T, c planCase, leg runConfig, _ [][]uint64, stats *core.PlanStats) {
			if stats.ChunksRecycled == 0 {
				t.Errorf("%s workers=%d: recycler idle: %+v", c.name, leg.env.Workers, stats)
			}
			sawReuse = sawReuse || stats.ChunksReused > 0
		},
	})
	if !sawReuse {
		t.Error("no query reused a recycled chunk")
	}
}

// Without a budget the recycler must carry traffic across plan shapes,
// serially and in parallel, with results unchanged.
func TestRecycleMatchesAcrossPlanShapes(t *testing.T) {
	ds := testDataset(t)
	runSuite(t, suite{
		cases: allCases(t, ds),
		legs: []runConfig{
			{env: core.EnvConfig{Workers: 1}},
			{env: core.EnvConfig{Workers: 3}},
		},
		check: func(t *testing.T, c planCase, leg runConfig, _ [][]uint64, stats *core.PlanStats) {
			// Single-operator plans (a lone star operator over base
			// tables) have no intermediate to drop; everywhere else the
			// recycler must have seen traffic.
			if len(stats.Ops) > 1 && stats.ChunksRecycled == 0 {
				t.Errorf("%s workers=%d: recycler idle across %d operators",
					c.name, leg.env.Workers, len(stats.Ops))
			}
		},
	})
}
