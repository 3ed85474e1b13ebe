package core

import (
	"context"
	"testing"
)

var benchKeys int

// BenchmarkFusedChain times the star plan (selection streaming into an
// aggregating join) with the single-consumer edge fused against the
// materialized execution of the same plan, serially and under morsel
// parallelism. The fused path should be no slower and allocate less: the
// selection's intermediate index is never built.
func BenchmarkFusedChain(b *testing.B) {
	f := buildFixture(21)
	for _, cfg := range []struct {
		name    string
		workers int
		opts    Options
	}{
		{"fused", 1, Options{}},
		{"materialized", 1, Options{NoFuse: true}},
		{"fused-w4", 4, Options{}},
		{"materialized-w4", 4, Options{NoFuse: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			env := newTestEnv(b, EnvConfig{Workers: cfg.workers})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := env.Run(context.Background(), starPlan(f, 2), cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				benchKeys += out.Keys()
			}
		})
	}
}

// BenchmarkBatchedProbe sweeps the probe-forward batch size of the fused
// star plan. batch1 is scalar forwarding (the pre-batching execution);
// larger batches sort each buffer so the consumer's LookupBatch walks
// shared tree descents once per distinct key — the paper's batch-probe
// amortization inside a fused chain. The recycler keeps steady-state
// batch buffers allocation-neutral across sizes.
func BenchmarkBatchedProbe(b *testing.B) {
	f := buildFixture(22)
	for _, cfg := range []struct {
		name    string
		workers int
		opts    Options
	}{
		{"batch1", 1, Options{ProbeBatch: 1}},
		{"batch256", 1, Options{ProbeBatch: 256}},
		{"batch512", 1, Options{}},
		{"batch1024", 1, Options{ProbeBatch: 1024}},
		{"batch512-w4", 4, Options{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			env := newTestEnv(b, EnvConfig{Workers: cfg.workers})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := env.Run(context.Background(), starPlan(f, 2), cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				benchKeys += out.Keys()
			}
		})
	}
}
