package core

import (
	"strings"
	"testing"

	"qppt/internal/kernel"
)

// TestKernelDescentStatsSplit checks the kernel/scalar descent counters:
// a probe-heavy plan under the default dispatch reports SWAR descents,
// the same plan under ForceGeneric reports only scalar ones, and the
// plan-level stats line surfaces the split.
func TestKernelDescentStatsSplit(t *testing.T) {
	if kernel.Mode() == "generic" {
		t.Skip("kernels disabled in this configuration")
	}
	f := buildFixture(20)
	run := func() *PlanStats {
		_, stats, err := run(t, EnvConfig{}, starPlan(f, 2), Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	kd, sd := run().descents()
	if kd == 0 {
		t.Fatalf("kernel descents = 0 (scalar %d), want > 0 under active dispatch", sd)
	}
	if s := run().String(); !strings.Contains(s, "SWAR descents") {
		t.Fatalf("stats string misses the kernel line:\n%s", s)
	}
	restore := kernel.ForceGeneric()
	kd, sd = run().descents()
	restore()
	if kd != 0 || sd == 0 {
		t.Fatalf("under ForceGeneric: kernel=%d scalar=%d, want 0 and > 0", kd, sd)
	}
}
