package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"qppt/internal/arena"
	"qppt/internal/arena/arenatest"
)

// The result index is recycled like any intermediate once its owner says
// so: Release parks its chunks in the session pool, the next plan's result
// draws them back, and the extracted rows — copies — are unaffected.
// Release is idempotent, and does nothing for what is not a pool-backed
// operator output: a base index handed through as the plan root, a run
// without a recycler, the nil table of a failed plan. The plan is the
// one-operator select-join, so the result is the only index each run
// builds and the pool's steady state does not depend on how many workers
// claimed a morsel.
func TestResultRelease(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	f := buildFixture(21)
	want, _, err := run(t, EnvConfig{}, sjPlan(f, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := Extract(want).Rows

	for _, workers := range []int{1, 3} {
		env, err := NewEnv(EnvConfig{Recycle: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var parked int
		for run := 0; run < 3; run++ {
			out, _, err := env.Run(context.Background(), sjPlan(f, 2), Options{})
			if err != nil {
				t.Fatal(err)
			}
			rows := Extract(out).Rows
			before := env.RecyclerStats()
			out.Release()
			after := env.RecyclerStats()
			if after.Recycled == before.Recycled {
				t.Fatalf("workers=%d run %d: releasing the result parked nothing", workers, run)
			}
			out.Release() // idempotent
			if again := env.RecyclerStats(); again.Recycled != after.Recycled {
				t.Fatalf("workers=%d: second Release parked %d more chunks", workers, again.Recycled-after.Recycled)
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("workers=%d run %d: rows differ after the result was released", workers, run)
			}
			if run > 0 && after.PooledBytes != int64(parked) {
				t.Errorf("workers=%d run %d: pool holds %d B after the plan, %d B after the previous one: the result is not cycling",
					workers, run, after.PooledBytes, parked)
			}
			parked = int(after.PooledBytes)
		}
		env.Close()
	}

	// A base index as the plan root: Release must leave it alone.
	env, err := NewEnv(EnvConfig{Recycle: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	base, _, err := env.Run(context.Background(), &Plan{Root: &Base{Table: f.custByKey}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base != f.custByKey {
		t.Fatal("a Base root no longer passes its table through")
	}
	base.Release()
	if st := env.RecyclerStats(); st.Recycled != 0 {
		t.Fatalf("releasing a base index parked %d chunks", st.Recycled)
	}
	if got, _, err := env.Run(context.Background(), sjPlan(f, 2), Options{}); err != nil || !reflect.DeepEqual(Extract(got).Rows, wantRows) {
		t.Fatalf("base index unusable after Release: err=%v", err)
	}

	// No recycler, and no table at all.
	want.Release()
	if !reflect.DeepEqual(Extract(want).Rows, wantRows) {
		t.Fatal("Release without a recycler touched the index")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	failed, _, err := env.Run(ctx, sjPlan(f, 2), Options{})
	if err == nil || failed != nil {
		t.Fatalf("cancelled plan returned table=%v err=%v", failed, err)
	}
	failed.Release()
}

// A sharded result (the parallel partition-wise merge's output) releases
// shard by shard, and dropping it allocates nothing beyond the pool's
// bookkeeping.
func TestShardedReleaseAllocatesNothing(t *testing.T) {
	rec := arena.NewRecycler()
	spec := &OutputSpec{Name: "sh", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	tables := make([]*IndexedTable, 8)
	for i := range tables {
		shards := make([]Index, 4)
		for s := range shards {
			shards[s] = newOutputIndex(spec, rec)
			shards[s].Insert(uint64(s)<<20, []uint64{1})
		}
		sh := newShardedIndex(shards, []uint64{0, 1 << 20, 2 << 20, 3 << 20},
			[]uint64{1<<20 - 1, 2<<20 - 1, 3<<20 - 1, keySpaceMax(32)}, 32)
		tables[i] = newOutputTable(spec, sh, rec)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tb := range tables {
		tb.Release()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(tables)); per > 4096 {
		t.Errorf("dropping a 4-shard index allocates %d B; it should allocate (next to) nothing", per)
	}
	if st := rec.Stats(); st.Recycled < 4*5*len(tables) {
		t.Errorf("released shards parked %d chunks", st.Recycled)
	}
}

// Project carves rows in the caller's column order from one backing array
// in one walk: the same values as Extract's rows re-projected, each row
// capped at its own length so the rows cannot grow into each other.
func TestProjectMatchesExtract(t *testing.T) {
	f := buildFixture(22)
	out, _, err := run(t, EnvConfig{}, starPlan(f, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Extract(out)
	sel := []int{1, 0, 1}
	rows := Project(out, sel)
	if len(rows) != len(res.Rows) {
		t.Fatalf("Project gave %d rows, Extract %d", len(rows), len(res.Rows))
	}
	for i, r := range rows {
		for j, c := range sel {
			if r[j] != res.Rows[i][c] {
				t.Fatalf("row %d col %d: %d, want %d", i, j, r[j], res.Rows[i][c])
			}
		}
		if cap(r) != len(sel) {
			t.Fatalf("row %d has capacity %d: appending to it would overwrite row %d", i, cap(r), i+1)
		}
	}
}
