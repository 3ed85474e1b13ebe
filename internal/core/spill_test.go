package core

import (
	"bytes"
	"reflect"
	"testing"

	"qppt/internal/duplist"
)

// Regression: shard() used to return len(s.his) for a key above the last
// shard's bound, so Insert/Lookup panicked with index-out-of-range. The
// last shard's range is documented as extended to the key-space maximum;
// keys at and beyond it must clamp there and behave like any other key.
func TestShardedIndexClampRouting(t *testing.T) {
	const bits = uint(16)
	max := keySpaceMax(bits)
	mk := func() Index { return NewIndex(IndexConfig{KeyBits: bits, PayloadWidth: 1}) }
	a, b := mk(), mk()
	a.Insert(5, []uint64{50})
	b.Insert(max, []uint64{99})
	s := newShardedIndex([]Index{a, b}, []uint64{0, 0x8000}, []uint64{0x7fff, max}, bits)

	// At the key-space maximum: owned by the last shard.
	if v := s.Lookup(max); v == nil || v.First()[0] != 99 {
		t.Fatalf("Lookup(max) = %v, want the stored row", v)
	}
	// Beyond it (e.g. a probe attribute wider than the index key): must
	// clamp to the last shard and read as a miss — no panic.
	if v := s.Lookup(max + 1); v != nil {
		t.Fatalf("Lookup(max+1) = %v, want nil", v)
	}
	got := map[int]uint64{}
	s.LookupBatch([]uint64{5, max, max + 12345}, func(i int, vals *duplist.List) {
		if vals != nil {
			got[i] = vals.First()[0]
		}
	})
	if !reflect.DeepEqual(got, map[int]uint64{0: 50, 1: 99}) {
		t.Fatalf("LookupBatch beyond max = %v", got)
	}
	// Inserts beyond the bound clamp into the last shard and stay findable
	// (the KISS shard accepts any 32-bit key; routing must not panic).
	s.Insert(max+2, []uint64{7})
	if v := s.Lookup(max + 2); v == nil || v.First()[0] != 7 {
		t.Fatal("Insert beyond max not routed to the last shard")
	}
}

// The sharded index a parallel merge produces must survive a freeze/thaw
// cycle shard-for-shard.
func TestShardedIndexFreezeThaw(t *testing.T) {
	spec := &OutputSpec{Name: "s", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	var partials []*IndexedTable
	for p := 0; p < 3; p++ {
		idx := newOutputIndex(spec, nil)
		for i := 0; i < 6000; i++ {
			idx.Insert(uint64(i*7+p), []uint64{uint64(i)})
		}
		partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx))
	}
	ec := &ExecContext{sched: NewScheduler(3)}
	merged, _ := mergePartialsParallel(ec, spec, partials)
	sh, ok := merged.Idx.(*shardedIndex)
	if !ok {
		t.Fatal("parallel merge did not shard")
	}
	plain, _ := mergePartials(nil, spec, partials, nil)

	fz := freezerOf(merged.Idx)
	if fz == nil {
		t.Fatal("sharded index over arena shards not spillable")
	}
	var buf bytes.Buffer
	if err := fz.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	fz.Release()
	if err := fz.Thaw(&buf); err != nil {
		t.Fatalf("Thaw: %v", err)
	}
	_ = sh
	assertSameTable(t, plain, merged)
}

// A plan run under a memory budget must spill (and restore) intermediates
// yet produce bit-identical results, serially and with morsel
// parallelism; the stats must record the traffic.
func TestMemBudgetSpillsAndMatches(t *testing.T) {
	f := buildFixture(3)
	want, _, err := run(t, EnvConfig{}, starPlan(f, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes := Extract(want)
	for _, workers := range []int{1, 3} {
		out, stats, err := run(t, EnvConfig{
			MemBudget: 1, // far below any intermediate: everything cold spills
			Workers:   workers,
		}, starPlan(f, 2), Options{CollectStats: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(Extract(out).Rows, wantRes.Rows) {
			t.Fatalf("workers=%d: budgeted result differs", workers)
		}
		if stats.Spills == 0 || stats.Restores == 0 {
			t.Fatalf("workers=%d: no spill traffic recorded: %+v", workers, stats)
		}
		if stats.SpillBytes == 0 || stats.RestoreBytes == 0 || stats.PeakResident == 0 {
			t.Fatalf("workers=%d: byte counters empty: %+v", workers, stats)
		}
		opSpills, opRestores := 0, 0
		for _, op := range stats.Ops {
			opSpills += op.Spills
			opRestores += op.Restores
		}
		if opSpills != stats.Spills || opRestores != stats.Restores {
			t.Fatalf("workers=%d: per-op spill counts %d/%d don't add up to plan totals %d/%d",
				workers, opSpills, opRestores, stats.Spills, stats.Restores)
		}
	}
}

// A multi-shard restore that fails midway must roll every shard back to
// frozen, so a later thaw from the intact snapshot still succeeds — and
// must never leave a mix of resident and frozen shards behind.
func TestShardedThawRollsBackOnError(t *testing.T) {
	spec := &OutputSpec{Name: "s", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	var partials []*IndexedTable
	for p := 0; p < 3; p++ {
		idx := newOutputIndex(spec, nil)
		for i := 0; i < 6000; i++ {
			idx.Insert(uint64(i*7+p), []uint64{uint64(i)})
		}
		partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx))
	}
	ec := &ExecContext{sched: NewScheduler(3)}
	merged, _ := mergePartialsParallel(ec, spec, partials)
	sh, ok := merged.Idx.(*shardedIndex)
	if !ok {
		t.Fatal("parallel merge did not shard")
	}
	want, _ := mergePartials(nil, spec, partials, nil)

	var buf bytes.Buffer
	if err := sh.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sh.Release()
	snapshot := buf.Bytes()

	// A truncated stream fails partway through the shard sequence…
	if err := sh.Thaw(bytes.NewReader(snapshot[:len(snapshot)*2/3])); err == nil {
		t.Fatal("truncated thaw did not fail")
	}
	// …and the rollback must leave every shard frozen again,
	for _, shard := range sh.shards {
		if !shard.(frozenIndex).Frozen() {
			t.Fatal("shard left resident after failed multi-shard thaw")
		}
	}
	// …so a retry from the intact snapshot fully recovers.
	if err := sh.Thaw(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("retry thaw after rollback: %v", err)
	}
	assertSameTable(t, want, merged)
}
