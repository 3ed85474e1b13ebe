package ssb

import (
	"strings"
	"testing"

	"qppt/internal/core"
)

// TestMorselParallelMatchesSerial asserts bit-identical results between
// serial and morsel-driven execution for every SSB query, across plan
// shapes (with and without composed select-joins) and pool sizes. The
// grouped aggregates fold associatively and the result index iterates in
// key order, so the parallel schedule must be completely invisible in the
// output.
func TestMorselParallelMatchesSerial(t *testing.T) {
	runSuite(t, testDataset(t), suite{
		shapes: bothShapes,
		legs: []runConfig{
			{core.EnvConfig{Workers: 2}, core.Options{MorselsPerWorker: 3}},
			{core.EnvConfig{Workers: 4}, core.Options{MorselsPerWorker: 3}},
		},
	})
}

// TestMorselStatsRecordConfiguration: the plan statistics must surface
// the pool configuration and the per-operator worker/morsel counts, so
// benchmark output records what it measured.
func TestMorselStatsRecordConfiguration(t *testing.T) {
	ds := testDataset(t)
	_, stats, err := runQPPT(t, ds, "2.3", PlanOptions{UseSelectJoin: true}, runConfig{
		core.EnvConfig{Workers: 3},
		core.Options{MorselsPerWorker: 5, CollectStats: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 || stats.MorselsPerWorker != 5 {
		t.Fatalf("plan stats pool = %d×%d, want 3×5", stats.Workers, stats.MorselsPerWorker)
	}
	fanned := false
	for _, op := range stats.Ops {
		if op.Morsels > 1 {
			fanned = true
		}
		if op.Workers < 1 || op.Morsels < op.Workers {
			t.Fatalf("%s: %d workers, %d morsels", op.Label, op.Workers, op.Morsels)
		}
	}
	if !fanned {
		t.Fatal("no operator recorded a morsel fan-out > 1")
	}
	if s := stats.String(); !strings.Contains(s, "workers") || !strings.Contains(s, "morsels") {
		t.Fatalf("stats string does not record the pool configuration:\n%s", s)
	}
}
