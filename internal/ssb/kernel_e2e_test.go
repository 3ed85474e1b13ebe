package ssb

import (
	"reflect"
	"testing"

	"qppt/internal/core"
	"qppt/internal/kernel"
)

// TestKernelMatchesScalarAndMaterialized is the acceptance gate for the
// SWAR batch kernels: every SSB query, run with the kernels active
// (default dispatch), forced through the scalar fallback
// (kernel.ForceGeneric — the -nokernel / QPPT_KERNEL=off path), and
// fully materialized (NoFuse), must produce bit-identical results —
// serially, in parallel, and under a sub-peak memory budget that pushes
// intermediates through the spill path. The kernels are an inner-loop
// strategy; nothing about them may be visible in the output.
func TestKernelMatchesScalarAndMaterialized(t *testing.T) {
	if !kernel.Enabled() {
		t.Skip("kernels disabled in this configuration; the fallback is the only path")
	}
	ds := testDataset(t)
	runSuite(t, ds, suite{
		shapes: []PlanOptions{{}},
		ref:    core.Options{NoFuse: true},
		legs: []runConfig{
			{},
			{core.EnvConfig{Workers: 3}, core.Options{MorselsPerWorker: 3}},
			{env: core.EnvConfig{MemBudget: 1}},
		},
		// runSuite has compared the kernel run against the materialized
		// reference; the scalar fallback must match the kernel run too.
		check: func(t *testing.T, qid string, shape PlanOptions, leg runConfig, withKernel *QueryResult, _ *core.PlanStats) {
			restore := kernel.ForceGeneric()
			scalar, _, err := runQPPT(t, ds, qid, shape, leg)
			restore()
			if err != nil {
				t.Fatalf("Q%s scalar (%+v): %v", qid, leg, err)
			}
			if !reflect.DeepEqual(withKernel.Rows, scalar.Rows) {
				t.Errorf("Q%s %+v: kernel result differs from scalar fallback (%d vs %d rows)",
					qid, leg, len(withKernel.Rows), len(scalar.Rows))
			}
		},
	})
}
