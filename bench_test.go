// Package qppt_test hosts the testing.B entry points that regenerate the
// paper's figures, one benchmark family per table/figure:
//
//	go test -bench BenchmarkFigure3a -benchmem .   # Fig. 3(a) inserts
//	go test -bench BenchmarkFigure3b -benchmem .   # Fig. 3(b) lookups
//	go test -bench BenchmarkFigure7  -benchmem .   # Fig. 7  SSB queries × engines
//	go test -bench BenchmarkFigure8  -benchmem .   # Fig. 8  select-join ablation
//	go test -bench BenchmarkFigure9  -benchmem .   # Fig. 9  join-arity ablation
//	go test -bench BenchmarkAblation -benchmem .   # design-choice ablations
//
// Benchmarks default to laptop-scale inputs (QPPT_BENCH_SF and
// QPPT_BENCH_KEYS environment variables scale them up); cmd/qpptbench
// runs the full paper-scale sweeps and prints the figures as tables.
package qppt_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"qppt"
	"qppt/internal/bench"
	"qppt/internal/core"
	"qppt/internal/ssb"
)

var (
	dsOnce sync.Once
	dsSSB  *ssb.Dataset
)

func benchSF() float64 {
	if s := os.Getenv("QPPT_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

func benchKeys() int {
	if s := os.Getenv("QPPT_BENCH_KEYS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 1_000_000
}

func dataset(b *testing.B) *ssb.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		dsSSB = ssb.MustLoad(ssb.GenConfig{SF: benchSF(), Seed: 42})
		if err := bench.WarmupQueries(dsSSB, benchEngine(b).Env()); err != nil {
			panic(err)
		}
	})
	return dsSSB
}

// BenchmarkFigure3a regenerates Figure 3(a): insert/update time per key.
func BenchmarkFigure3a(b *testing.B) {
	n := benchKeys()
	for _, structure := range bench.Fig3Structures {
		b.Run(fmt.Sprintf("%s/keys=%d", structure, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := bench.Figure3aOne(structure, n)
				b.ReportMetric(rows, "ns/key")
			}
		})
	}
}

// BenchmarkFigure3b regenerates Figure 3(b): lookup time per key.
func BenchmarkFigure3b(b *testing.B) {
	n := benchKeys()
	for _, structure := range bench.Fig3Structures {
		b.Run(fmt.Sprintf("%s/keys=%d", structure, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := bench.Figure3bOne(structure, n)
				b.ReportMetric(rows, "ns/key")
			}
		})
	}
}

// benchEngine is a default-configured engine, closed when the benchmark
// ends; the hand-built plans run on its Env.
func benchEngine(b *testing.B) *qppt.Engine {
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

// BenchmarkFigure7 regenerates Figure 7: every SSB query on every engine.
func BenchmarkFigure7(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for _, qid := range ssb.QueryIDs {
		b.Run("Q"+qid+"/qppt", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.RunQPPT(context.Background(), env, qid, ssb.DefaultPlanOptions(), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Q"+qid+"/vector", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.RunVector(qid); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Q"+qid+"/column", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.RunColumn(qid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8 regenerates Figure 8: Q1.1 with and without the
// composed select-join-group operator.
func BenchmarkFigure8(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for _, cfg := range []struct {
		name string
		sj   bool
	}{{"with-select-join", true}, {"without-select-join", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.RunQPPT(context.Background(), env, "1.1", ssb.PlanOptions{UseSelectJoin: cfg.sj}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9 regenerates Figure 9: Q4.1 under join-arity caps.
func BenchmarkFigure9(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for arity := 2; arity <= 5; arity++ {
		b.Run(fmt.Sprintf("%d-way", arity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.RunQPPT(context.Background(), env, "4.1", ssb.PlanOptions{JoinArity: arity}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinBuffer sweeps the demonstrator's joinbuffer size.
func BenchmarkAblationJoinBuffer(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for _, size := range []int{1, 64, 512, 2048} {
		b.Run(fmt.Sprintf("buffer=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exec := core.Options{BufferSize: size}
				if _, _, err := ds.RunQPPT(context.Background(), env, "2.3", ssb.PlanOptions{UseSelectJoin: true}, exec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKPrime measures the Section 2.1 k' trade-off.
func BenchmarkAblationKPrime(b *testing.B) {
	n := benchKeys()
	b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := bench.AblationKPrime(n)
			for _, r := range rows {
				b.ReportMetric(r.InsertNs, fmt.Sprintf("k%d-%s-ins-ns/key", r.KPrime, r.Dist))
			}
		}
	})
}

// BenchmarkAblationKISSCompression measures the Section 2.2 RCU trade-off.
func BenchmarkAblationKISSCompression(b *testing.B) {
	n := benchKeys()
	b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := bench.AblationKISSCompression(n)
			for _, r := range rows {
				b.ReportMetric(r.InsertNs, fmt.Sprintf("%s-compress=%v-ns/key", r.Dist, r.Compress))
			}
		}
	})
}

// BenchmarkAblationBatchSize sweeps the Section 2.3 batch size.
func BenchmarkAblationBatchSize(b *testing.B) {
	n := benchKeys()
	for i := 0; i < b.N; i++ {
		rows := bench.AblationBatchSize(n)
		for _, r := range rows {
			b.ReportMetric(r.LookupNs, fmt.Sprintf("batch%d-ns/key", r.BatchSize))
		}
	}
}
