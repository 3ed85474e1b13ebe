package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"qppt/internal/arena"
	"qppt/internal/arena/arenatest"
	"qppt/internal/duplist"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
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
		if stats.SpillBytes == 0 || stats.RestoreBytes == 0 || stats.RestoreBytesRead == 0 || stats.PeakResident == 0 {
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

// Under a budget the partition-wise merge registers the worker partials
// with the spill manager and pins them for each merge range: a budget
// below any partial freezes each on registration and thaws it for the
// ranges that read it, the merging operator reports that traffic, and the
// answer is the unbudgeted one.
func TestBudgetedParallelMergeSpillsPartials(t *testing.T) {
	const nKeys, groups = 100000, 2 * parallelMergeMinKeys
	idx := NewIndex(IndexConfig{KeyBits: 32, PayloadWidth: 1})
	for k := uint64(0); k < nKeys; k++ {
		idx.Insert(k, []uint64{k % groups})
	}
	in := NewIndexedTable("t", SimpleKey("k", 32), []string{"g"}, idx)
	sel := &Selection{
		Input: &Base{Table: in},
		Out: OutputSpec{
			Name:     "Γ_g",
			Key:      SimpleKey("g", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "g"}},
			Cols:     []string{"n"},
			ColExprs: []RowExpr{Computed(func([]uint64) uint64 { return 1 })},
			Fold:     FoldSum(0),
		},
	}
	want, _, err := run(t, EnvConfig{}, &Plan{Root: sel}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Whoever scans key 0 waits until another worker scans the upper half,
	// so at least two workers build partials however the pool is scheduled.
	// The wait is bounded: a pool that never starts a second worker fails
	// the Workers check below instead of hanging.
	kOff := CtxOffsets([]*IndexedTable{in}, Ref{Input: 0, Attr: "k"})[0]
	late := make(chan struct{})
	var once sync.Once
	sel.Residual = func(ctx []uint64) bool {
		switch k := ctx[kOff]; {
		case k == 0:
			select {
			case <-late:
			case <-time.After(10 * time.Second):
			}
		case k >= nKeys/2:
			once.Do(func() { close(late) })
		}
		return true
	}
	got, stats, err := run(t, EnvConfig{Workers: 3, MemBudget: 1}, &Plan{Root: sel}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Extract(got).Rows, Extract(want).Rows) {
		t.Fatal("budgeted parallel merge changed the result")
	}
	op := stats.Ops[len(stats.Ops)-1]
	if op.Workers < 2 {
		t.Fatalf("the scan ran on %d worker: no partials to merge", op.Workers)
	}
	if op.Spills == 0 || op.Restores == 0 {
		t.Fatalf("merging operator reports %d spills, %d restores; want both > 0", op.Spills, op.Restores)
	}
}

// dimSel is one dimension selection of the liveness plans: every customer,
// re-keyed on custkey, carrying the region. Each call is an operator of its
// own, so a plan can take several.
func dimSel(f *fixture, name string) *Selection {
	return &Selection{
		Input: &Base{Table: f.custByKey},
		Pred:  Between(0, nCust-1),
		Out: OutputSpec{
			Name:     name,
			Key:      SimpleKey("custkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
			Cols:     []string{"region"},
			ColExprs: []RowExpr{Attr(0, "region")},
		},
	}
}

// dimPlan is sum(qty) by region for one brand as a single select-join fed
// by the given dimension inputs, each probed with the fact's custkey; the
// region comes from the first.
func dimPlan(f *fixture, brand uint64, dims ...Operator) *SelectJoin {
	sj := &SelectJoin{
		SelInput:      &Base{Table: f.prodByBrand},
		Pred:          Point(brand),
		Main:          &Base{Table: f.factByProd},
		ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(1, "qty")},
			Fold:     FoldSum(0),
		},
	}
	for _, d := range dims {
		sj.Assists = append(sj.Assists, Assist{Input: d, ProbeWith: Ref{Input: 1, Attr: "custkey"}})
	}
	return sj
}

// sharedPlan joins two select-joins (brands brand and brand+1) that both
// probe the same dimension operator: an intermediate with two consumers.
func sharedPlan(f *fixture, brand uint64, shared Operator) *Join {
	return &Join{
		Left:  dimPlan(f, brand, shared),
		Right: dimPlan(f, brand+1, shared),
		Out: OutputSpec{
			Name:     "⋈_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 0, Attr: "region"}},
			Cols:     []string{"a", "b"},
			ColExprs: []RowExpr{Attr(0, "sum_qty"), Attr(1, "sum_qty")},
		},
	}
}

// TestSharedInputUnpinnedAfterEachConsumer: finishOp unpins an operator's
// inputs once it has run. Under a one-byte budget the intermediate both
// select-joins read is frozen again after its first consumer, so the second
// consumer's pin restores it a second time. An input left pinned would stay
// resident through the second consumer and be restored only once.
func TestSharedInputUnpinnedAfterEachConsumer(t *testing.T) {
	f := buildFixture(31)
	shared := dimSel(f, "σ_shared")
	pl := &Plan{Root: sharedPlan(f, 4, shared)}
	want, _, err := run(t, EnvConfig{}, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := run(t, EnvConfig{MemBudget: 1}, pl, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Extract(got).Rows, Extract(want).Rows) {
		t.Fatal("budgeted result differs")
	}
	i := slices.IndexFunc(stats.Ops, func(op OperatorStats) bool { return op.Label == shared.Label() })
	if i < 0 {
		t.Fatalf("no operator row for %s:\n%s", shared.Label(), stats)
	}
	if r := stats.Ops[i].Restores; r < 2 {
		t.Fatalf("%s restored ×%d, want ≥ 2 (once per consumer):\n%s", shared.Label(), r, stats)
	}
}

// TestSpillLiveness pins the executor's eviction rule by counts, under a
// budget that holds one intermediate but not two: an input leaves the
// budget when its last consumer has run, before the operator's output
// enters it, and the plan result never enters it — so a plan with at most
// one intermediate does no I/O at all, and one with N dimension selections
// writes and reads back at most N−1 of them. An intermediate with a second
// consumer outlives the first.
func TestSpillLiveness(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	f := buildFixture(31)
	const brand = 4
	base := &Base{Table: f.custByKey}
	shared := dimSel(f, "σ_shared")
	plans := []struct {
		name string
		dims int // -1: not a star
		root Operator
	}{
		{"0 dimensions", 0, dimPlan(f, brand, base)},
		{"1 dimension", 1, dimPlan(f, brand, dimSel(f, "σ_1"))},
		{"2 dimensions", 2, dimPlan(f, brand, dimSel(f, "σ_1"), dimSel(f, "σ_2"))},
		{"3 dimensions", 3, dimPlan(f, brand, dimSel(f, "σ_1"), dimSel(f, "σ_2"), dimSel(f, "σ_3"))},
		// σ_shared feeds both select-joins; dropping it when the first has
		// run would fail the second's pin.
		{"2 consumers", -1, sharedPlan(f, brand, shared)},
	}
	// One intermediate's tracked size, to put the budget between one and two.
	_, st, err := run(t, EnvConfig{}, &Plan{Root: plans[1].root}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(st.Ops[0].OutBytes) * 3 / 2
	for _, workers := range []int{1, 2} {
		for _, tc := range plans {
			pl := &Plan{Root: tc.root}
			want, _, err := run(t, EnvConfig{}, pl, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			env := newTestEnv(t, EnvConfig{Workers: workers, Recycle: true, MemBudget: budget, SpillDir: dir})
			var pooled int64
			for round := 0; round < 2; round++ {
				out, stats, err := env.Run(context.Background(), pl, Options{CollectStats: true})
				if err != nil {
					t.Fatalf("workers=%d, %s: %v", workers, tc.name, err)
				}
				if !reflect.DeepEqual(Extract(out).Rows, Extract(want).Rows) {
					t.Fatalf("workers=%d, %s: budgeted result differs", workers, tc.name)
				}
				// No leaks: nothing tracked, no file, and (serially, where
				// the peak of live chunks repeats) the pool as full after
				// the second run as after the first.
				if left, _ := os.ReadDir(dir); len(left) != 0 || env.SpillStats().Resident != 0 {
					t.Errorf("workers=%d, %s: %d spill files and %d tracked bytes outlive the plan",
						workers, tc.name, len(left), env.SpillStats().Resident)
				}
				out.Release()
				now := env.RecyclerStats().PooledBytes
				if round == 1 && workers == 1 && now != pooled {
					t.Errorf("%s: pool holds %d B after the second run, %d B after the first", tc.name, now, pooled)
				}
				pooled = now
				if workers > 1 {
					continue // concurrent branches: the counts depend on the schedule
				}
				root := stats.Ops[len(stats.Ops)-1]
				if root.Spills != 0 || root.Restores != 0 {
					t.Errorf("%s: the plan result was spilled ×%d, restored ×%d", tc.name, root.Spills, root.Restores)
				}
				switch {
				case tc.dims < 0:
				case tc.dims <= 1:
					if stats.Spills != 0 || stats.Restores != 0 {
						t.Errorf("%s: %d spills, %d restores; want no I/O", tc.name, stats.Spills, stats.Restores)
					}
				case stats.Spills == 0 || stats.Spills > tc.dims-1 || stats.Restores > tc.dims-1:
					t.Errorf("%s: %d spills, %d restores; want 1 to %d and at most %d",
						tc.name, stats.Spills, stats.Restores, tc.dims-1, tc.dims-1)
				}
			}
		}
	}
}

// frozen reports whether a tree-backed index's storage is detached.
func frozen(idx Index) bool {
	switch v := idx.(type) {
	case ptIndex:
		return v.t.Frozen()
	case kissIndex:
		return v.t.Frozen()
	}
	return false
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
	// …and the rollback must leave every shard frozen again, holding
	// nothing — the shard the stream ended in included,
	for _, shard := range sh.shards {
		if !frozen(shard) {
			t.Fatal("shard left resident after failed multi-shard thaw")
		}
	}
	if b := sh.Bytes(); b != 0 {
		t.Fatalf("frozen shards still hold %d bytes after failed multi-shard thaw", b)
	}
	// …so a retry from the intact snapshot fully recovers.
	if err := sh.Thaw(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("retry thaw after rollback: %v", err)
	}
	assertSameTable(t, want, merged)
}

// snapshotCuts walks a stream of concatenated tree snapshots (package
// freeze's format) and returns the offsets to truncate it at: every
// structure's start, inside its magic, both ends and the middle of every
// interior section, around the leaf directory, and inside its first and
// last leaf.
func snapshotCuts(b []byte) []int {
	const kissMagic = 0x5150_5054_4B53_0003
	u64 := func(off int) int { return int(binary.LittleEndian.Uint64(b[off:])) }
	var cuts []int
	for off := 0; off < len(b); {
		sections := 1 // prefix tree: node slots
		if binary.LittleEndian.Uint64(b[off:]) == kissMagic {
			sections = 3 // root pages, node slots, compressed nodes
		}
		cuts = append(cuts, off, off+4)
		p := off + 8
		for range sections {
			size := u64(p)
			cuts = append(cuts, p, p+8, p+8+size/2)
			p += 8 + size
		}
		nChunks := u64(p + 8)
		leaves := p + 16 + 24*nChunks
		off = leaves
		for c := 0; c < nChunks; c++ {
			off += u64(p + 32 + 24*c)
		}
		cuts = append(cuts, p, p+8, p+16, leaves, leaves+20, off-4)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// A three-shard index — a prefix tree, a KISS-Tree and a compressed
// KISS-Tree sharing one stream — cut at every framing boundary and inside
// a leaf of every shard: Thaw fails with io.ErrUnexpectedEOF, leaves every
// shard frozen with zero bytes and every drawn chunk back in the pool, and
// the intact stream then restores the index.
func TestShardedThawTruncatedAnywhere(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	rec := arena.NewRecycler()
	const bits = 24
	var shards []Index
	var los, his []uint64
	for i, idx := range []Index{
		ptIndex{prefixtree.MustNew(prefixtree.Config{KeyBits: bits, PayloadWidth: 1, Recycler: rec})},
		kissIndex{kisstree.MustNew(kisstree.Config{PayloadWidth: 1, Recycler: rec})},
		kissIndex{kisstree.MustNew(kisstree.Config{PayloadWidth: 1, Compress: true, Recycler: rec})},
	} {
		lo := uint64(i) << 22
		for k := uint64(0); k < 9000; k++ {
			idx.Insert(lo+k*311%(1<<22), []uint64{k})
		}
		shards, los, his = append(shards, idx), append(los, lo), append(his, lo+1<<22-1)
	}
	sh := newShardedIndex(shards, los, his, bits)
	collect := func() map[uint64][][]uint64 {
		m := map[uint64][][]uint64{}
		sh.Iterate(func(k uint64, vals *duplist.List) bool {
			m[k] = vals.Rows()
			return true
		})
		return m
	}
	want := collect()
	var buf bytes.Buffer
	if err := sh.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sh.Release()
	snapshot := buf.Bytes()
	pooled := rec.Stats().PooledBytes

	for _, cut := range snapshotCuts(snapshot) {
		if err := sh.Thaw(bytes.NewReader(snapshot[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: error %v, want io.ErrUnexpectedEOF", cut, len(snapshot), err)
		}
		for i, shard := range sh.shards {
			if !frozen(shard) || shard.Bytes() != 0 {
				t.Fatalf("cut at %d: shard %d left frozen=%v with %d bytes", cut, i, frozen(shard), shard.Bytes())
			}
		}
		if got := rec.Stats().PooledBytes; got != pooled {
			t.Fatalf("cut at %d: pool holds %d bytes, %d before the failed thaw", cut, got, pooled)
		}
	}
	if err := sh.Thaw(bytes.NewReader(snapshot)); err != nil {
		t.Fatalf("Thaw of the intact stream: %v", err)
	}
	if !reflect.DeepEqual(collect(), want) {
		t.Fatal("restored content differs")
	}
}

// frostOrder without a spill manager must be the identity permutation —
// locality ordering only exists to prefer resident inputs over frozen
// ones, and without a budget nothing is ever frozen.
func TestFrostOrderIdentityWithoutSpill(t *testing.T) {
	f := buildFixture(17)
	ex := &executor{}
	ops := []Operator{&Base{Table: f.custByKey}, &Base{Table: f.factByProd}, &Base{Table: f.prodByBrand}}
	order := ex.frostOrder(ops)
	if len(order) != len(ops) {
		t.Fatalf("frostOrder returned %d indexes for %d ops", len(order), len(ops))
	}
	for i, o := range order {
		if o != i {
			t.Fatalf("frostOrder without spill = %v, want identity", order)
		}
	}
}
