package ssb

import (
	"testing"

	"qppt/internal/core"
)

// intermediates counts the operator outputs of a finished plan that a later
// operator read back: every materialized output but the root's. Only those
// ever enter the spill manager.
func intermediates(stats *core.PlanStats) int {
	n := -1
	for _, op := range stats.Ops {
		if !op.Fused {
			n++
		}
	}
	return n
}

// TestSpillBudgetMatchesUnbudgeted is the spilling acceptance test: every
// SSB query runs under a memory budget smaller than any one intermediate
// index, spills and restores what a later operator reads back (nonzero
// counters in PlanStats) — and nothing when the plan is a single operator,
// whose output is the caller's — and produces rows bit-identical to the
// unbudgeted run: spilling is a pure storage decision.
func TestSpillBudgetMatchesUnbudgeted(t *testing.T) {
	runSuite(t, testDataset(t), suite{
		shapes: bothShapes,
		legs:   []runConfig{{core.EnvConfig{MemBudget: halfPeak}, core.Options{CollectStats: true}}},
		check: func(t *testing.T, qid string, shape PlanOptions, leg runConfig, _ *QueryResult, stats *core.PlanStats) {
			budget := leg.env.MemBudget
			if want := intermediates(stats) > 0; (stats.Spills > 0) != want || (stats.Restores > 0) != want {
				t.Errorf("Q%s %+v budget=%d: spills=%d restores=%d with %d intermediates",
					qid, shape, budget, stats.Spills, stats.Restores, intermediates(stats))
			}
			if stats.MemBudget != budget {
				t.Errorf("Q%s: stats budget = %d, want %d", qid, stats.MemBudget, budget)
			}
		},
	})
}

// Morsel-driven parallel execution under a budget: branches resolve (and
// pin/unpin their inputs) concurrently, the merged sharded outputs spill
// shard-by-shard, and the result must still be bit-identical.
func TestSpillBudgetUnderParallelism(t *testing.T) {
	runSuite(t, testDataset(t), suite{
		qids:   []string{"1.1", "2.3", "3.1", "4.1"},
		shapes: []PlanOptions{{UseSelectJoin: true}},
		legs: []runConfig{{
			core.EnvConfig{Workers: 3, MemBudget: 1}, // everything cold spills
			core.Options{MorselsPerWorker: 3, CollectStats: true},
		}},
		check: func(t *testing.T, qid string, _ PlanOptions, _ runConfig, _ *QueryResult, stats *core.PlanStats) {
			if intermediates(stats) > 0 && (stats.Spills == 0 || stats.Restores == 0) {
				t.Errorf("Q%s: parallel run recorded spills=%d restores=%d", qid, stats.Spills, stats.Restores)
			}
		},
	})
}

// A budgeted run of the decomposed-selection plan shape (intersect/union
// set operators over rid indexes) exercises spilling across the remaining
// operator kinds.
func TestSpillBudgetDecomposedSelections(t *testing.T) {
	runSuite(t, testDataset(t), suite{
		qids:   []string{"1.1"},
		shapes: []PlanOptions{{DecomposeSelections: true}},
		legs:   []runConfig{{core.EnvConfig{MemBudget: 1}, core.Options{CollectStats: true}}},
		check: func(t *testing.T, _ string, _ PlanOptions, _ runConfig, _ *QueryResult, stats *core.PlanStats) {
			if stats.Spills == 0 || stats.Restores == 0 {
				t.Errorf("decomposed plan: spills=%d restores=%d", stats.Spills, stats.Restores)
			}
		},
	})
}

// TestSpillRecycleMatches is the memory-lifecycle acceptance test: every
// SSB query runs with the chunk recycler enabled, serially and under
// morsel parallelism, under a budget below the plan's peak intermediate
// footprint — and must stay bit-identical to the plain run while the
// recycler counters prove the pool actually engaged.
func TestSpillRecycleMatches(t *testing.T) {
	sawReuse := false
	leg := func(workers int) runConfig {
		return runConfig{
			core.EnvConfig{Workers: workers, MemBudget: halfPeak, Recycle: true},
			core.Options{CollectStats: true},
		}
	}
	runSuite(t, testDataset(t), suite{
		shapes: []PlanOptions{{UseSelectJoin: true}},
		legs:   []runConfig{leg(1), leg(3)},
		check: func(t *testing.T, qid string, _ PlanOptions, leg runConfig, _ *QueryResult, stats *core.PlanStats) {
			if stats.ChunksRecycled == 0 {
				t.Errorf("Q%s workers=%d: recycler idle: %+v", qid, leg.env.Workers, stats)
			}
			sawReuse = sawReuse || stats.ChunksReused > 0
		},
	})
	if !sawReuse {
		t.Error("no query reused a recycled chunk")
	}
}

// The recycler alone (no budget, no spilling) must also be invisible in
// the results — serially and in parallel, across plan shapes.
func TestRecycleMatchesAcrossPlanShapes(t *testing.T) {
	runSuite(t, testDataset(t), suite{
		shapes: bothShapes,
		legs: []runConfig{
			{core.EnvConfig{Workers: 1, Recycle: true}, core.Options{CollectStats: true}},
			{core.EnvConfig{Workers: 3, Recycle: true}, core.Options{CollectStats: true}},
		},
		check: func(t *testing.T, qid string, shape PlanOptions, leg runConfig, _ *QueryResult, stats *core.PlanStats) {
			// Single-operator plans (a lone composed select-join over
			// base tables) have no intermediate to drop; everywhere
			// else the recycler must have seen traffic.
			if len(stats.Ops) > 1 && stats.ChunksRecycled == 0 {
				t.Errorf("Q%s %+v workers=%d: recycler idle across %d operators",
					qid, shape, leg.env.Workers, len(stats.Ops))
			}
		},
	})
}
