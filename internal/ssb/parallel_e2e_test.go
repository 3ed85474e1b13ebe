package ssb

import (
	"context"
	"strings"
	"testing"

	"qppt/internal/core"
)

// TestMorselParallelMatchesSerial asserts bit-identical results between
// serial and morsel-driven execution for every case — the SSB texts under
// both planner shapes, the roll-ups and the figures.go plans — and pool
// sizes. The grouped aggregates fold associatively and the result index
// iterates in key order, so the parallel schedule must be completely
// invisible in the output.
func TestMorselParallelMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	runSuite(t, suite{
		cases: allCases(t, ds),
		legs: []runConfig{
			{core.EnvConfig{Workers: 2}, core.Options{}},
			{core.EnvConfig{Workers: 3}, core.Options{}},
			{core.EnvConfig{Workers: 4}, core.Options{}},
		},
	})
}

// TestMorselStatsRecordConfiguration: the plan statistics must surface
// the pool size and the per-operator worker/morsel counts, so benchmark
// output records what it measured. A parallel operator splits its key
// space into 4 morsels per pool worker; the roll-up's year range spans
// all of them.
func TestMorselStatsRecordConfiguration(t *testing.T) {
	ds := testDataset(t)
	c := sqlCase(t, ds, "rollup1", "", rollups[0])
	_, stats, err := c.run(context.Background(), newTestEnv(t, core.EnvConfig{Workers: 3}),
		core.Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 {
		t.Fatalf("plan stats pool = %d workers, want 3", stats.Workers)
	}
	const morsels = 3 * 4
	fanned := false
	for _, op := range stats.Ops {
		if op.Morsels == morsels {
			fanned = true
		}
		if op.Workers < 1 || op.Workers > 3 || op.Morsels < op.Workers || op.Morsels > morsels {
			t.Fatalf("%s: %d workers, %d morsels; want 1–3 workers over at most %d morsels", op.Label, op.Workers, op.Morsels, morsels)
		}
	}
	if !fanned {
		t.Fatalf("no operator ran all %d morsels: %+v", morsels, stats.Ops)
	}
	s := stats.String()
	if !strings.Contains(s, "(pool: 3 workers)") || !strings.Contains(s, " morsels]") {
		t.Fatalf("stats string does not record the pool size and morsel counts:\n%s", s)
	}
}
