package ssb

import (
	"context"
	"reflect"
	"testing"

	"qppt/internal/core"
	"qppt/internal/kernel"
)

// TestKernelMatchesScalarAndMaterialized is the acceptance gate for the
// SWAR batch kernels: every SSB query, run with the kernels active
// (default dispatch) and forced through the scalar fallback
// (kernel.ForceGeneric — the -nokernel / QPPT_KERNEL=off path), must
// produce the rows of the serial, unbudgeted reference run bit-identically
// — serially, in parallel, and under a one-byte memory budget that pushes
// every materialized intermediate through the spill path. The kernels are
// an inner-loop strategy; nothing about them may be visible in the output.
func TestKernelMatchesScalarAndMaterialized(t *testing.T) {
	if kernel.Mode() == "generic" {
		t.Skip("kernels disabled in this configuration; the fallback is the only path")
	}
	ds := testDataset(t)
	runSuite(t, suite{
		cases: allCases(t, ds),
		legs: []runConfig{
			{},
			{core.EnvConfig{Workers: 3}, core.Options{MorselsPerWorker: 3}},
			{env: core.EnvConfig{MemBudget: 1}},
		},
		// runSuite has compared the kernel run against the serial
		// reference; the scalar fallback must match the kernel run too.
		check: func(t *testing.T, c planCase, leg runConfig, withKernel [][]uint64, _ *core.PlanStats) {
			restore := kernel.ForceGeneric()
			scalar, _, err := c.run(context.Background(), newTestEnv(t, leg.env), leg.exec)
			restore()
			if err != nil {
				t.Fatalf("%s scalar (%+v): %v", c.name, leg, err)
			}
			if !reflect.DeepEqual(withKernel, scalar) {
				t.Errorf("%s %+v: kernel result differs from scalar fallback (%d vs %d rows)",
					c.name, leg, len(withKernel), len(scalar))
			}
		},
	})
}
