// Package qppt_test hosts the testing.B families that regenerate the
// paper's figures, one family per figure or design-choice ablation:
//
//	go test -run '^$' -bench Figure3a -benchmem .  # Fig. 3(a) inserts, ns/key
//	go test -run '^$' -bench Figure3b -benchmem .  # Fig. 3(b) lookups, ns/key
//	go test -run '^$' -bench Figure7  -benchmem .  # Fig. 7  SSB queries × engines
//	go test -run '^$' -bench Figure8  -benchmem .  # Fig. 8  select-join on/off
//	go test -run '^$' -bench Figure9  -benchmem .  # Fig. 9  join arity 2–5
//	go test -run '^$' -bench Ablation -benchmem .  # joinbuffer, k′, batch size
//
// Inputs default to laptop scale; QPPT_BENCH_SF (SSB scale factor,
// default 0.1) and QPPT_BENCH_KEYS (tree keys, default 1 000 000) scale
// them. Absolute numbers differ from the paper (pure Go against C on a
// 2012 Xeon); the families reproduce the shapes: orderings, approximate
// factors and crossovers. The client-view benchmark is benchmark/.
package qppt_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/hashbase"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

var (
	dsOnce sync.Once
	dsSSB  *ssb.Dataset
	dsErr  error
)

// benchSF is the SSB scale factor of the query figures.
func benchSF(b *testing.B) float64 {
	s := os.Getenv("QPPT_BENCH_SF")
	if s == "" {
		return 0.1
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) {
		b.Fatalf("QPPT_BENCH_SF=%q: want a positive scale factor", s)
	}
	return v
}

// benchKeys is the index size of the tree figures and ablations.
func benchKeys(b *testing.B) int {
	s := os.Getenv("QPPT_BENCH_KEYS")
	if s == "" {
		return 1_000_000
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		b.Fatalf("QPPT_BENCH_KEYS=%q: want a positive key count", s)
	}
	return v
}

// dataset loads the SSB instance once per process and runs every query
// once per engine, and every figures plan once, so no timed loop pays a
// lazy base-index build.
func dataset(b *testing.B) *ssb.Dataset {
	b.Helper()
	sf := benchSF(b)
	dsOnce.Do(func() {
		eng, err := qppt.New(qppt.Config{})
		if err != nil {
			dsErr = err
			return
		}
		defer eng.Close()
		ds := ssb.MustLoad(ssb.GenConfig{SF: sf, Seed: 42})
		ctx, env := context.Background(), eng.Env()
		planner := sql.NewPlanner(ds.Cat)
		for _, qid := range ssb.QueryIDs {
			stmt, err := planner.PlanSQL(ssb.SQLTexts[qid])
			if err == nil {
				_, _, err = stmt.Run(ctx, env, core.Options{})
			}
			if err == nil {
				_, err = ds.RunColumn(qid)
			}
			if err == nil {
				_, err = ds.RunVector(qid)
			}
			if err != nil {
				dsErr = fmt.Errorf("Q%s: %w", qid, err)
				return
			}
		}
		plans := []*core.Plan{ds.Figure8Plan()}
		for arity := 2; arity <= 5; arity++ {
			plans = append(plans, ds.Figure9Plan(arity))
		}
		for _, plan := range plans {
			out, _, err := env.Run(ctx, plan, core.Options{})
			if err != nil {
				dsErr = err
				return
			}
			out.Release()
		}
		dsSSB = ds
	})
	if dsErr != nil {
		b.Fatal(dsErr)
	}
	return dsSSB
}

// benchEngine is a default-configured engine, closed when the benchmark
// ends; the query figures run on its Env.
func benchEngine(b *testing.B) *qppt.Engine {
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

// statement plans an SSB text the way a client's query is planned; the
// figures time its runs, not its planning.
func statement(b *testing.B, ds *ssb.Dataset, qid string) *sql.Statement {
	stmt, err := sql.NewPlanner(ds.Cat).PlanSQL(ssb.SQLTexts[qid])
	if err != nil {
		b.Fatal(err)
	}
	return stmt
}

// runStatement runs a planned statement b.N times.
func runStatement(b *testing.B, env *core.Env, stmt *sql.Statement, exec core.Options) {
	for i := 0; i < b.N; i++ {
		if _, _, err := stmt.Run(context.Background(), env, exec); err != nil {
			b.Fatal(err)
		}
	}
}

// runPlan runs a hand-built figures plan b.N times.
func runPlan(b *testing.B, env *core.Env, plan *core.Plan) {
	for i := 0; i < b.N; i++ {
		out, _, err := env.Run(context.Background(), plan, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// reportPerKey derives ns/key from the timed b.N loop, each iteration of
// which touched n keys.
func reportPerKey(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
}

// shuffledKeys is the paper's Figure 3 workload: the dense range [0, n)
// in random order.
func shuffledKeys(n int, seed int64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// sink keeps lookup results live.
var sink uint64

// batchLookup probes t in batches of size bs; size 1 is the scalar
// Lookup.
func batchLookup(t *kisstree.Tree, probes []uint64, bs int) {
	if bs == 1 {
		for _, k := range probes {
			if lf := t.Lookup(k); lf != nil {
				sink += lf.Key
			}
		}
		return
	}
	for off := 0; off < len(probes); off += bs {
		t.LookupBatch(probes[off:min(off+bs, len(probes))], func(_ int, lf *kisstree.Leaf) {
			if lf != nil {
				sink += lf.Key
			}
		})
	}
}

// A fig3Index is one series of Figure 3: build indexes the keys and
// returns the lookup over the built index.
type fig3Index struct {
	name  string
	build func(keys []uint64) (lookup func(probes []uint64))
}

// fig3Indexes lists the competitors of Figure 3 in plot order: the
// paper's five series plus OPEN, a modern open-addressing table (GLib's
// and Boost's 2012 tables were both node-based chained ones).
var fig3Indexes = []fig3Index{
	{"PT4", func(keys []uint64) func([]uint64) {
		t := prefixtree.MustNew(prefixtree.Config{PrefixLen: 4, KeyBits: 32, PayloadWidth: 1})
		row := []uint64{0}
		for _, k := range keys {
			row[0] = k
			t.Insert(k, row)
		}
		return func(probes []uint64) {
			for _, k := range probes {
				if lf := t.Lookup(k); lf != nil {
					sink += lf.Key
				}
			}
		}
	}},
	{"GLIB", func(keys []uint64) func([]uint64) { return chained(hashbase.NewChainedMap(0), keys) }},
	{"BOOST", func(keys []uint64) func([]uint64) { return chained(hashbase.NewBoostMap(0), keys) }},
	{"OPEN", func(keys []uint64) func([]uint64) {
		m := hashbase.NewOpenMap(0)
		for _, k := range keys {
			m.Insert(k, k)
		}
		return func(probes []uint64) {
			for _, k := range probes {
				if v, ok := m.Lookup(k); ok {
					sink += v
				}
			}
		}
	}},
	{"KISS", func(keys []uint64) func([]uint64) {
		t := kisstree.MustNew(kisstree.Config{PayloadWidth: 1})
		row := []uint64{0}
		for _, k := range keys {
			row[0] = k
			t.Insert(k, row)
		}
		return func(probes []uint64) { batchLookup(t, probes, 1) }
	}},
	{"KISS Batched", func(keys []uint64) func([]uint64) {
		const bs = core.DefaultBufferSize
		t := kisstree.MustNew(kisstree.Config{PayloadWidth: 1})
		rows := make([][]uint64, bs)
		for off := 0; off < len(keys); off += bs {
			end := min(off+bs, len(keys))
			for i := off; i < end; i++ {
				rows[i-off] = keys[i : i+1]
			}
			t.InsertBatch(keys[off:end], rows[:end-off])
		}
		return func(probes []uint64) { batchLookup(t, probes, bs) }
	}},
}

// chained fills a chained hash table, GLIB or BOOST, and returns its
// lookup.
func chained(m *hashbase.ChainedMap, keys []uint64) func([]uint64) {
	for _, k := range keys {
		m.Insert(k, k)
	}
	return func(probes []uint64) {
		for _, k := range probes {
			if v, ok := m.Lookup(k); ok {
				sink += v
			}
		}
	}
}

// BenchmarkFigure3a regenerates Figure 3(a): insert time per key.
func BenchmarkFigure3a(b *testing.B) {
	n := benchKeys(b)
	keys := shuffledKeys(n, 31)
	for _, idx := range fig3Indexes {
		b.Run(fmt.Sprintf("%s/keys=%d", idx.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.build(keys)
			}
			reportPerKey(b, n)
		})
	}
}

// BenchmarkFigure3b regenerates Figure 3(b): lookup time per key, every
// key of a pre-built index probed in random order.
func BenchmarkFigure3b(b *testing.B) {
	n := benchKeys(b)
	keys, probes := shuffledKeys(n, 33), shuffledKeys(n, 35)
	for _, idx := range fig3Indexes {
		b.Run(fmt.Sprintf("%s/keys=%d", idx.name, n), func(b *testing.B) {
			lookup := idx.build(keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookup(probes)
			}
			reportPerKey(b, n)
		})
	}
}

// BenchmarkFigure7 regenerates Figure 7: every SSB query's SQL text on
// QPPT — the planner's plan, which is what a client runs — and on the
// vector-at-a-time and column-at-a-time baselines, which compile the same
// text (without the planner) and probe its dimensions most selective
// first.
func BenchmarkFigure7(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for _, qid := range ssb.QueryIDs {
		b.Run("Q"+qid+"/qppt", func(b *testing.B) {
			runStatement(b, env, statement(b, ds, qid), core.Options{})
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

// BenchmarkFigure8 regenerates Figure 8: Q1.1 with the composed
// select-join-group operator (the planner's plan) and without it (the
// hand-built ssb.Figure8Plan). The plan without it also reports the share
// of its operator time spent in the lineorder selection (the paper:
// ~95 %).
func BenchmarkFigure8(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	b.Run("with-select-join", func(b *testing.B) {
		runStatement(b, env, statement(b, ds, "1.1"), core.Options{})
	})
	b.Run("without-select-join", func(b *testing.B) {
		plan := ds.Figure8Plan()
		runPlan(b, env, plan)
		b.StopTimer()
		out, stats, err := env.Run(context.Background(), plan, core.Options{CollectStats: true})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
		var sel, total time.Duration
		found := false
		for _, op := range stats.Ops {
			total += op.Time
			if op.Label == "σ→σ_lineorder" {
				sel, found = op.Time, true
			}
		}
		if !found || total == 0 {
			b.Fatalf("no timed lineorder selection in %d operators", len(stats.Ops))
		}
		b.ReportMetric(float64(sel)/float64(total), "selection-share")
	})
}

// BenchmarkFigure9 regenerates Figure 9: Q4.1 under join-arity caps 2–5.
// Every arity is a hand-built plan (ssb.Figure9Plan); the uncapped 5-way
// point is one star join, the customer selection driving lineorder, with
// the supplier and part selections and the date index as assists.
func BenchmarkFigure9(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for arity := 2; arity <= 5; arity++ {
		b.Run(fmt.Sprintf("%d-way", arity), func(b *testing.B) {
			runPlan(b, env, ds.Figure9Plan(arity))
		})
	}
}

// BenchmarkAblationJoinBuffer sweeps the demonstrator's joinbuffer size
// (Appendix A) on Q2.3, Q3.1 and Q4.1: size 1 disables batching and runs
// 2–3× slower; 64, 512 and 2048 land within run-to-run noise of each
// other, because the joinbuffer neither copies nor allocates per buffered
// combination, so a larger buffer costs only its cache footprint.
func BenchmarkAblationJoinBuffer(b *testing.B) {
	ds := dataset(b)
	env := benchEngine(b).Env()
	for _, qid := range []string{"2.3", "3.1", "4.1"} {
		stmt := statement(b, ds, qid)
		for _, size := range []int{1, 64, 512, 2048} {
			b.Run(fmt.Sprintf("Q%s/buffer=%d", qid, size), func(b *testing.B) {
				runStatement(b, env, stmt, core.Options{BufferSize: size})
			})
		}
	}
}

// BenchmarkAblationKPrime measures the Section 2.1 k′ trade-off: a longer
// prefix halves the tree depth but costs memory on sparse key sets.
// Lookup cases also report the tree's bytes per key.
func BenchmarkAblationKPrime(b *testing.B) {
	n := benchKeys(b)
	rng := rand.New(rand.NewSource(41))
	sparse := make([]uint64, n)
	for i := range sparse {
		sparse[i] = uint64(rng.Uint32())
	}
	for _, dist := range []struct {
		name string
		keys []uint64
	}{{"dense", shuffledKeys(n, 41)}, {"sparse", sparse}} {
		for _, kp := range []uint{2, 4, 8} {
			build := func() *prefixtree.Tree {
				t := prefixtree.MustNew(prefixtree.Config{PrefixLen: kp, KeyBits: 32})
				for _, k := range dist.keys {
					t.Insert(k, nil)
				}
				return t
			}
			b.Run(fmt.Sprintf("%s/k=%d/insert", dist.name, kp), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					build()
				}
				reportPerKey(b, n)
			})
			b.Run(fmt.Sprintf("%s/k=%d/lookup", dist.name, kp), func(b *testing.B) {
				t := build()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, k := range dist.keys {
						if lf := t.Lookup(k); lf != nil {
							sink += lf.Key
						}
					}
				}
				reportPerKey(b, n)
				b.ReportMetric(float64(t.Bytes())/float64(t.Keys()), "bytes/key")
			})
		}
	}
}

// BenchmarkAblationBatchSize sweeps the Section 2.3 KISS-Tree batch
// lookup size; batch size 1 is the scalar lookup.
func BenchmarkAblationBatchSize(b *testing.B) {
	n := benchKeys(b)
	t := kisstree.MustNew(kisstree.Config{})
	for _, k := range shuffledKeys(n, 47) {
		t.Insert(k, nil)
	}
	probes := shuffledKeys(n, 49)
	for _, bs := range []int{1, 16, 64, 256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batchLookup(t, probes, bs)
			}
			reportPerKey(b, n)
		})
	}
}
