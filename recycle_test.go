package qppt_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"qppt"
	"qppt/internal/arena/arenatest"
	"qppt/internal/ssb"
)

// pointTexts returns n distinct one-row texts over the first order dates:
// sum(lo_revenue) for one day under one quantity bound, the benchmark's
// point-plan shape. Distinct texts never hit a Conn's statement cache.
func pointTexts(ds *ssb.Dataset, n int) []string {
	days := slices.Clone(ds.Raw["date"]["d_datekey"])
	slices.Sort(days)
	const bounds = 20
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("select sum(lo_revenue) from lineorder where lo_orderdate = %d and lo_quantity < %d;",
			days[i/bounds], 31+i%bounds)
	}
	return texts
}

// TestEngineAllocBudget pins what a small query costs once the engine is
// warm: the result index is recycled after its rows are copied out, so an
// uncached one-row query allocates a few KiB — parse, plan, the executor's
// headers, the row — and no chunk; every query draws its index chunks from
// the pool (Reused rises) and leaves the pool exactly as full as it found
// it (PooledBytes flat, nothing trimmed). Before the result index was
// recycled this was 1.2 MB and five fresh chunks per query.
func TestEngineAllocBudget(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	conn := eng.Conn(ds.Cat)
	defer conn.Close()
	ctx := context.Background()
	const warm, measured = 64, 1000
	texts := pointTexts(ds, warm+measured)
	run := func(text string) {
		stmt, err := conn.PrepareCached(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := stmt.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", text, len(rows.Rows))
		}
	}
	for _, text := range texts[:warm] {
		run(text)
	}
	start := eng.Stats().Recycler
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prev := start
	for _, text := range texts[warm:] {
		run(text)
		st := eng.Stats().Recycler
		if st.Reused <= prev.Reused {
			t.Fatalf("a query reused no pooled chunk: %+v", st)
		}
		if st.PooledBytes != start.PooledBytes {
			t.Fatalf("pool went from %d to %d B over one query: the result index is not cycling", start.PooledBytes, st.PooledBytes)
		}
		prev = st
	}
	runtime.ReadMemStats(&m1)
	if prev.TrimEvicted != 0 {
		t.Errorf("%d chunks trimmed", prev.TrimEvicted)
	}
	if hits := eng.Stats().StmtCache.Hits; hits != 0 {
		t.Fatalf("%d statement-cache hits: the texts are not distinct", hits)
	}
	// Ceilings are about twice what the engine achieves (≈10 KiB and ≈120
	// allocations per query, parse and plan included; a little more under
	// the race detector).
	const maxBytes, maxAllocs = 20 << 10, 230
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / measured
	allocs := (m1.Mallocs - m0.Mallocs) / measured
	t.Logf("%d B and %d allocations per uncached one-row query", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("an uncached one-row query allocates %d B in %d allocations, budget %d B / %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// TestEngineStarAllocBudget pins what a cached star join costs once the
// engine is warm: the joinbuffer's slots and queues, like the sink's insert
// buffer and the scan's combination, come from the chunk pool, so a run
// allocates its headers and the result rows, not a combination buffer.
// Before the joinbuffer drew on the pool, Q2.3, Q3.4 and Q4.3 allocated
// about 169, 199 and 417 KB per run at this scale.
func TestEngineStarAllocBudget(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	conn := eng.Conn(ds.Cat)
	defer conn.Close()
	ctx := context.Background()
	// Ceilings are about twice what the engine achieves (≈7, ≈9 and
	// ≈21 KiB per run; ≈10, ≈12 and ≈49 KiB under the race detector,
	// whose sync.Pool drops pooled lookup scratch).
	for _, tc := range []struct {
		qid      string
		maxBytes uint64
	}{{"2.3", 16 << 10}, {"3.4", 20 << 10}, {"4.3", 56 << 10}} {
		stmt, err := conn.PrepareCached(ctx, ssb.SQLTexts[tc.qid])
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, _, err := stmt.Run(ctx); err != nil {
				t.Fatalf("Q%s: %v", tc.qid, err)
			}
		}
		const warm, measured = 8, 50
		for range warm {
			run()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range measured {
			run()
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / measured
		t.Logf("Q%s: %d B per cached run", tc.qid, bytes)
		if bytes > tc.maxBytes {
			t.Errorf("Q%s allocates %d B per cached run, budget %d B", tc.qid, bytes, tc.maxBytes)
		}
	}
}

// TestEngineZeroInvariant runs the SSB suite with every chunk the pools
// hand out checked for being zero over its full capacity: PutChunk clears
// only the prefix an owner wrote, so a chunk that comes back dirty means
// some owner wrote beyond the length it handed over. Serial, parallel
// (worker partials drawing from the shared pool, partial merges) and under
// a spilling budget (freeze and thaw). Results stay identical to the
// one-fresh-engine-per-query reference throughout.
func TestEngineZeroInvariant(t *testing.T) {
	ds := engineDataset(t)
	ref := oneShotResults(t, ds)

	handed := arenatest.CheckZeroHandouts(t)
	for _, tc := range []struct {
		name string
		cfg  qppt.Config
	}{
		{"serial", qppt.Config{}},
		{"workers=2", qppt.Config{Workers: 2}},
		{"budget", qppt.Config{Workers: 2, MemBudget: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := qppt.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			conn := eng.Conn(ds.Cat)
			defer conn.Close()
			before := handed.Load()
			for pass := 0; pass < 2; pass++ {
				for _, qid := range ssb.QueryIDs {
					stmt, err := conn.PrepareCached(context.Background(), ssb.SQLTexts[qid])
					if err != nil {
						t.Fatalf("Q%s: %v", qid, err)
					}
					rows, _, err := stmt.Run(context.Background())
					if err != nil {
						t.Fatalf("pass %d Q%s: %v", pass, qid, err)
					}
					if !reflect.DeepEqual(rows.Rows, ref[qid]) {
						t.Errorf("pass %d Q%s: result differs from the one-shot reference", pass, qid)
					}
				}
			}
			if handed.Load() == before {
				t.Error("no chunk was ever handed out of a pool: the check saw nothing")
			}
			if tc.cfg.MemBudget > 0 && eng.Stats().Spill.Spills == 0 {
				t.Error("budgeted engine never spilled")
			}
		})
	}
}

// TestEngineReleaseSparesBaseIndexes: the result index of every statement
// is released after extraction, the catalog's base indexes never — a plan
// reads them through Base operators and must not recycle what it did not
// build. The same bare-table SELECT twice through one Conn (second time
// from the statement cache) gives identical rows, and the base index it
// scanned still serves a join afterwards.
func TestEngineReleaseSparesBaseIndexes(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	conn := eng.Conn(ds.Cat)
	defer conn.Close()
	ctx := context.Background()
	query := func(text string) [][]uint64 {
		t.Helper()
		stmt, err := conn.PrepareCached(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := stmt.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Rows
	}
	const bare = "select d_year, sum(d_datekey) from date group by d_year;"
	const join = "select d_year, sum(lo_revenue) from lineorder, date where lo_orderdate = d_datekey group by d_year;"
	joined := query(join)
	first := query(bare)
	if len(first) == 0 {
		t.Fatal("bare-table SELECT returned nothing")
	}
	if second := query(bare); !reflect.DeepEqual(first, second) {
		t.Fatalf("the same bare-table SELECT gave different rows the second time:\n%v\n%v", first, second)
	}
	if again := query(join); !reflect.DeepEqual(again, joined) || len(joined) == 0 {
		t.Fatalf("join over the date base index changed after the bare-table SELECTs: %d vs %d rows", len(again), len(joined))
	}
}
