package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qppt/internal/duplist"
	"qppt/internal/prefixtree"
)

func TestPartitionBounds(t *testing.T) {
	// Partitions must be disjoint and cover [lo, hi] exactly.
	f := func(lo, hi uint64, parts8 uint8) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		parts := int(parts8%7) + 1
		var next uint64 = lo
		covered := false
		for p := 0; p < parts; p++ {
			pLo, pHi, ok := partitionBounds(lo, hi, p, parts)
			if !ok {
				continue
			}
			if pLo != next {
				return false // gap or overlap
			}
			if pHi < pLo {
				return false
			}
			if pHi == hi {
				covered = true
			}
			next = pHi + 1
		}
		return covered
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Full key space does not overflow.
	seen := uint64(0)
	for p := 0; p < 4; p++ {
		lo, hi, ok := partitionBounds(0, ^uint64(0), p, 4)
		if !ok {
			t.Fatalf("full-space partition %d missing", p)
		}
		seen += hi - lo + 1
	}
	if seen != 0 { // 2^64 wraps to 0
		t.Fatalf("full-space partitions cover %d keys too few/many", seen)
	}
}

func TestIntersectPred(t *testing.T) {
	pred := KeyPred{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 40}}
	got := intersectPred(pred, 15, 35)
	want := KeyPred{{Lo: 15, Hi: 20}, {Lo: 30, Hi: 35}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if got := intersectPred(pred, 21, 29); got == nil || len(got) != 0 {
		t.Fatalf("disjoint intersect = %#v, want empty non-nil", got)
	}
	if got := intersectPred(nil, 5, 9); !reflect.DeepEqual(got, KeyPred{{Lo: 5, Hi: 9}}) {
		t.Fatalf("nil pred intersect = %v", got)
	}
}

// TestSyncScanMorselsCoverSyncScan: the union over all key-range morsels
// must visit exactly the pairs the unpartitioned scan visits, for all
// index kinds — the property the Join operator's morsel split relies on.
func TestSyncScanMorselsCoverSyncScan(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	configs := []struct {
		name string
		a, b Index
	}{
		{"kiss-kiss", NewIndex(IndexConfig{KeyBits: 20}), NewIndex(IndexConfig{KeyBits: 20})},
		{"pt-pt", NewIndex(IndexConfig{KeyBits: 40}), NewIndex(IndexConfig{KeyBits: 40})},
		{"mixed", NewIndex(IndexConfig{KeyBits: 20}), ptIndex{prefixtree.MustNew(prefixtree.Config{KeyBits: 20})}},
	}
	for _, cfg := range configs {
		a, b := cfg.a, cfg.b
		for i := 0; i < 20000; i++ {
			a.Insert(uint64(rng.Intn(50000)), nil)
			b.Insert(uint64(rng.Intn(50000)), nil)
		}
		want := map[uint64]bool{}
		SyncScan(a, b, func(k uint64, _, _ *duplist.List) bool {
			want[k] = true
			return true
		})
		lo, hi, okB := syncScanBounds(a, b)
		if !okB {
			t.Fatalf("%s: no scan bounds", cfg.name)
		}
		for _, parts := range []int{1, 2, 3, 7} {
			got := map[uint64]bool{}
			for p := 0; p < parts; p++ {
				pLo, pHi, ok := partitionBounds(lo, hi, p, parts)
				if !ok {
					continue
				}
				syncScanKeyRange(a, b, pLo, pHi, func(k uint64, _, _ *duplist.List) bool {
					if got[k] {
						t.Fatalf("%s parts=%d: key %d visited twice", cfg.name, parts, k)
					}
					got[k] = true
					return true
				})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s parts=%d: %d keys, want %d", cfg.name, parts, len(got), len(want))
			}
		}
	}
}

// TestWorkersPreserveResults: intra-operator parallelism must never change
// operator output.
func TestWorkersPreserveResults(t *testing.T) {
	f := buildFixture(77)
	ref, _, err := run(t, EnvConfig{}, starPlan(f, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, stats, err := run(t, EnvConfig{Workers: w}, starPlan(f, 4), Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resultAsMap(t, Extract(got)), resultAsMap(t, Extract(ref))) {
			t.Fatalf("workers=%d changed the result", w)
		}
		if stats.Ops[len(stats.Ops)-1].TuplesIndexed == 0 {
			t.Fatalf("workers=%d: no stats accumulated", w)
		}
	}
}

func TestWorkersWithSelectJoin(t *testing.T) {
	f := buildFixture(78)
	sj := func() *SelectJoin {
		return &SelectJoin{
			SelInput:      &Base{Table: f.prodByBrand},
			Pred:          Between(0, nBrand-1),
			Main:          &Base{Table: f.factByProd},
			ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
			Out: OutputSpec{
				Name:     "Γ",
				Key:      SimpleKey("region?", 16), // keyed on custkey actually
				KeyRefs:  []Ref{{Input: 1, Attr: "custkey"}},
				Cols:     []string{"sum_qty"},
				ColExprs: []RowExpr{Attr(1, "qty")},
				Fold:     FoldSum(0),
			},
		}
	}
	ref, _, err := run(t, EnvConfig{}, &Plan{Root: sj()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := run(t, EnvConfig{Workers: 4}, &Plan{Root: sj()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultAsMap(t, Extract(ref)), resultAsMap(t, Extract(par))) {
		t.Fatal("workers changed select-join result")
	}
}

func TestWorkersOnNonAggregatingSelection(t *testing.T) {
	// Plain (non-folding) outputs must carry the same row multiset.
	f := buildFixture(79)
	sel := func() *Selection {
		return &Selection{
			Input: &Base{Table: f.factByProd},
			Pred:  Between(0, nProd/2),
			Out: OutputSpec{
				Name:     "σ",
				Key:      SimpleKey("custkey", 16),
				KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
				Cols:     []string{"qty"},
				ColExprs: []RowExpr{Attr(0, "qty")},
			},
		}
	}
	ref, _, err := run(t, EnvConfig{}, &Plan{Root: sel()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := run(t, EnvConfig{Workers: 5}, &Plan{Root: sel()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rows() != par.Rows() || ref.Keys() != par.Keys() {
		t.Fatalf("rows/keys: %d/%d vs %d/%d", ref.Rows(), ref.Keys(), par.Rows(), par.Keys())
	}
	count := func(t2 *IndexedTable) map[[2]uint64]int {
		m := map[[2]uint64]int{}
		t2.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
			vals.Scan(func(row []uint64) bool {
				m[[2]uint64{k, row[0]}]++
				return true
			})
			return true
		})
		return m
	}
	if !reflect.DeepEqual(count(ref), count(par)) {
		t.Fatal("row multisets differ")
	}
}

// TestMorselsBalanceSkewedKeys: a deliberately skewed key distribution —
// nearly all rows crammed into the top slice of the key space, so a static
// Workers-way split would hand one partition almost everything — must
// still produce results identical to serial execution, with the morsel
// fan-out engaged (more morsels than workers).
func TestMorselsBalanceSkewedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	idx := NewIndex(IndexConfig{KeyBits: 32, PayloadWidth: 1})
	// 3% of rows spread over the key space, 97% in the top 1/64th.
	for i := 0; i < 40000; i++ {
		var k uint64
		if i%32 == 0 {
			k = uint64(rng.Intn(1 << 32))
		} else {
			k = uint64(63<<26) + uint64(rng.Intn(1<<26))
		}
		idx.Insert(k, []uint64{uint64(rng.Intn(100))})
	}
	in := NewIndexedTable("skewed", SimpleKey("k", 32), []string{"v"}, idx)
	sel := func() *Selection {
		return &Selection{
			Input: &Base{Table: in},
			Out: OutputSpec{
				Name:     "Γ",
				Key:      SimpleKey("g", 8),
				KeyRefs:  []Ref{{Input: 0, Attr: "v"}},
				Cols:     []string{"n"},
				ColExprs: []RowExpr{Computed(func([]uint64) uint64 { return 1 })},
				Fold:     FoldSum(0),
			},
		}
	}
	ref, _, err := run(t, EnvConfig{}, &Plan{Root: sel()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := run(t, EnvConfig{Workers: 4}, &Plan{Root: sel()}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultAsMap(t, Extract(ref)), resultAsMap(t, Extract(got))) {
		t.Fatal("skewed morsel execution changed the result")
	}
	op := stats.Ops[len(stats.Ops)-1]
	if op.Morsels <= op.Workers {
		t.Fatalf("morsel fan-out did not engage: %d morsels for %d workers", op.Morsels, op.Workers)
	}
	if stats.Workers != 4 {
		t.Fatalf("plan stats report %d workers, want 4", stats.Workers)
	}
}

// TestMergePartialsParallelMatchesSerial: the partition-wise parallel
// merge must produce exactly the table the sequential re-insert produces,
// for folding and plain outputs alike.
func TestMergePartialsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, folding := range []bool{true, false} {
		spec := &OutputSpec{
			Name: "m",
			Key:  SimpleKey("k", 40), // prefix tree
			Cols: []string{"v"},
		}
		if folding {
			spec.Fold = FoldSum(0)
		}
		var partials []*IndexedTable
		for p := 0; p < 5; p++ {
			idx := newOutputIndex(spec, nil)
			for i := 0; i < 9000; i++ {
				idx.Insert(uint64(rng.Intn(1<<22)), []uint64{uint64(rng.Intn(10))})
			}
			partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx))
		}
		serial, _ := mergePartials(nil, spec, partials, nil)
		ec := &ExecContext{sched: NewScheduler(4)}
		par, _ := mergePartialsParallel(ec, spec, partials)
		if _, sharded := par.Idx.(*shardedIndex); !sharded {
			t.Fatalf("folding=%v: parallel merge did not shard", folding)
		}
		assertSameTable(t, serial, par)
	}
}

// assertSameTable checks two indexed tables hold the same keys in the same
// ascending order with the same per-key row multisets.
func assertSameTable(t *testing.T, a, b *IndexedTable) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Keys() != b.Keys() {
		t.Fatalf("rows/keys: %d/%d vs %d/%d", a.Rows(), a.Keys(), b.Rows(), b.Keys())
	}
	collect := func(tb *IndexedTable) ([]uint64, map[uint64]map[[2]uint64]int) {
		var order []uint64
		rows := map[uint64]map[[2]uint64]int{}
		tb.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
			order = append(order, k)
			m := map[[2]uint64]int{}
			vals.Scan(func(row []uint64) bool {
				var cell [2]uint64
				copy(cell[:], row)
				m[cell]++
				return true
			})
			rows[k] = m
			return true
		})
		return order, rows
	}
	aOrder, aRows := collect(a)
	bOrder, bRows := collect(b)
	if !reflect.DeepEqual(aOrder, bOrder) {
		t.Fatal("key iteration order differs")
	}
	if !reflect.DeepEqual(aRows, bRows) {
		t.Fatal("per-key row multisets differ")
	}
}

// TestShardedIndexSemantics: the sharded index a parallel merge produces
// must behave exactly like the equivalent plain index for every Index
// operation downstream operators use.
func TestShardedIndexSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	spec := &OutputSpec{Name: "s", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	var partials []*IndexedTable
	for p := 0; p < 3; p++ {
		idx := newOutputIndex(spec, nil)
		for i := 0; i < 6000; i++ {
			idx.Insert(uint64(rng.Intn(1<<30)), []uint64{uint64(i)})
		}
		partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx))
	}
	plain, _ := mergePartials(nil, spec, partials, nil)
	ec := &ExecContext{sched: NewScheduler(3)}
	sharded, _ := mergePartialsParallel(ec, spec, partials)
	sh, ok := sharded.Idx.(*shardedIndex)
	if !ok {
		t.Fatal("parallel merge did not shard")
	}

	if pm, _ := plain.Idx.Min(); func() uint64 { m, _ := sh.Min(); return m }() != pm {
		t.Fatal("Min differs")
	}
	if pm, _ := plain.Idx.Max(); func() uint64 { m, _ := sh.Max(); return m }() != pm {
		t.Fatal("Max differs")
	}
	if sh.PayloadWidth() != plain.Idx.PayloadWidth() {
		t.Fatal("PayloadWidth differs")
	}

	// Point lookups and batch lookups, hits and misses.
	probes := make([]uint64, 0, 6000)
	for i := 0; i < 4000; i++ {
		probes = append(probes, uint64(rng.Intn(1<<30)))
	}
	hits := 0
	plain.Idx.Iterate(func(k uint64, _ *duplist.List) bool {
		probes = append(probes, k)
		hits++
		return hits < 2000
	})
	for _, k := range probes {
		a, b := plain.Idx.Lookup(k), sh.Lookup(k)
		if (a == nil) != (b == nil) {
			t.Fatalf("Lookup(%d) presence differs", k)
		}
		if a != nil && a.Len() != b.Len() {
			t.Fatalf("Lookup(%d) multiplicity differs", k)
		}
	}
	got := map[int]int{}
	sh.LookupBatch(probes, func(i int, vals *duplist.List) {
		if vals != nil {
			got[i] = vals.Len()
		}
	})
	want := map[int]int{}
	plain.Idx.LookupBatch(probes, func(i int, vals *duplist.List) {
		if vals != nil {
			want[i] = vals.Len()
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("LookupBatch results differ")
	}

	// Range scans, including ones spanning shard boundaries.
	for trial := 0; trial < 50; trial++ {
		lo := uint64(rng.Intn(1 << 30))
		hi := lo + uint64(rng.Intn(1<<28))
		var a, b []uint64
		plain.Idx.Range(lo, min(hi, keySpaceMax(32)), func(k uint64, _ *duplist.List) bool {
			a = append(a, k)
			return true
		})
		sh.Range(lo, min(hi, keySpaceMax(32)), func(k uint64, _ *duplist.List) bool {
			b = append(b, k)
			return true
		})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Range(%d,%d) differs: %d vs %d keys", lo, hi, len(a), len(b))
		}
	}

	// Inserting after the merge routes to the owning shard.
	preKeys := sh.Keys()
	sh.Insert(0, []uint64{7})
	sh.Insert(keySpaceMax(32), []uint64{8})
	if sh.Keys() < preKeys+1 {
		t.Fatal("post-merge inserts lost")
	}
	if sh.Lookup(keySpaceMax(32)) == nil {
		t.Fatal("post-merge insert at key-space edge not found")
	}
}
