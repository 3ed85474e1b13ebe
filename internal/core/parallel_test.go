package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

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

// TestSyncScanMorselsCoverSyncScan: the synchronous index scan (paper
// Section 4.2) is the select-join of the whole driving index. Over every
// pairing of index kinds and shapes a join meets, a SelectJoin of two
// key-indexed inputs outputs, for every key present in both inside its
// window, the cross product of the driver's rows and the main input's,
// driver rows outer — checked against a brute-force reference, in key
// order. Each shape runs both ways round (each index as the driver), at
// Workers 1, 2 and 3, with Pred nil and with each window as Pred: both
// indexes' key bounds, a random window inside them, the whole 64-bit key
// space, the keys past a KISS-Tree's 32 bits and the keys past both
// indexes' width.
func TestSyncScanMorselsCoverSyncScan(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	random := func(n, span int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(span))
		}
		return keys
	}
	steps := func(from, to, step uint64) []uint64 {
		var keys []uint64
		for k := from; k < to; k += step {
			keys = append(keys, k)
		}
		return keys
	}
	kiss := func() Index { return NewIndex(IndexConfig{KeyBits: 20, PayloadWidth: 1}) }
	pt := func(prefixLen, keyBits uint) Index {
		return prefixtree.MustNew(prefixtree.Config{PrefixLen: prefixLen, KeyBits: keyBits, PayloadWidth: 1})
	}
	// chunks puts keys step apart into each listed 2^22-key span, the keys
	// under one 2^16-bucket chunk of a KISS-Tree's root.
	chunks := func(step uint64, cs ...uint64) []uint64 {
		var keys []uint64
		for _, c := range cs {
			keys = append(keys, steps(c<<22, c<<22+7000, step)...)
		}
		return keys
	}
	const top = ^uint64(0)
	cases := []struct {
		name   string
		a, b   Index
		ka, kb []uint64
	}{
		{"kiss-kiss", kiss(), kiss(), random(20000, 50000), random(20000, 50000)},
		{"pt-pt", pt(0, 40), pt(0, 40), random(20000, 50000), random(20000, 50000)},
		{"pt-small", pt(0, 64), pt(0, 64), []uint64{1, 5, 100, 1 << 20, 1 << 40}, []uint64{5, 100, 7, 1 << 40, 1 << 41}},
		{"pt-early-stop", pt(0, 64), pt(0, 64), steps(0, 100, 1), steps(0, 100, 1)},
		{"mixed", kiss(), pt(0, 20), random(20000, 50000), random(20000, 50000)},
		{"mixed-multiples", kiss(), pt(0, 20), steps(0, 3000, 3), steps(0, 3000, 5)},
		{"pt-prefix-lengths", pt(4, 64), pt(8, 64), random(5000, 1<<14), random(5000, 1<<14)},
		{"pt-key-widths", pt(4, 32), pt(6, 64), random(5000, 1<<14), random(5000, 1<<14)},
		// Dynamic expansion: a content node high up in one tree where the
		// other grew a subtree under the same fragment path, both ways.
		{"pt-asymmetric-depths", pt(0, 64), pt(0, 64),
			[]uint64{0x1000, 0xF000_0000_0000_0000, 0xF000_0000_0000_0001},
			append(steps(0x1000, 0x1040, 1), 0xF000_0000_0000_0000)},
		{"pt-near-2^64", pt(0, 64), pt(0, 64), append(steps(top-3000, top, 3), top), append(steps(top-3000, top, 5), top)},
		{"pt-disjoint-subtrees", pt(0, 64), pt(0, 64), steps(0, 10000, 1), steps(1<<40, 1<<40+10000, 1)},
		{"kiss-disjoint-root-chunks", kiss(), kiss(), chunks(7, 0, 2, 4), chunks(5, 1, 2, 3)},
		{"kiss-empty-side", kiss(), kiss(), random(1000, 5000), nil},
		{"pt-empty-side", pt(0, 40), pt(0, 40), nil, random(1000, 5000)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Row i of a side is [i]: its insertion ordinal under its key.
			ordinals := func(idx Index, keys []uint64) map[uint64][]uint64 {
				m := map[uint64][]uint64{}
				for i, k := range keys {
					idx.Insert(k, []uint64{uint64(i)})
					m[k] = append(m[k], uint64(i))
				}
				return m
			}
			aRows, bRows := ordinals(c.a, c.ka), ordinals(c.b, c.kb)
			var common []uint64
			for k := range aRows {
				if bRows[k] != nil {
					common = append(common, k)
				}
			}
			slices.Sort(common)
			a := NewIndexedTable("a", SimpleKey("k", c.a.KeyBits()), []string{"a"}, c.a)
			b := NewIndexedTable("b", SimpleKey("k", c.b.KeyBits()), []string{"b"}, c.b)

			preds := []KeyPred{nil, {{Lo: 0, Hi: top}}, {{Lo: 1 << 32, Hi: top}}}
			if bits := max(c.a.KeyBits(), c.b.KeyBits()); bits < 64 {
				preds = append(preds, KeyPred{{Lo: keySpaceMax(bits) + 1, Hi: top}})
			}
			aLo, aHi, aOK := idxBounds(c.a)
			bLo, bHi, bOK := idxBounds(c.b)
			if lo, hi := max(aLo, bLo), min(aHi, bHi); aOK && bOK && lo <= hi {
				l := lo + uint64(rng.Int63n(int64(min(hi-lo, 1<<62)/2+1)))
				preds = append(preds, KeyPred{{Lo: lo, Hi: hi}}, KeyPred{{Lo: l, Hi: l + (hi-l)/2}})
			}
			for _, aDrives := range []bool{true, false} {
				drv, main := a, b
				cols := []RowExpr{Attr(0, "a"), Attr(1, "b")}
				if !aDrives {
					drv, main = b, a
					cols = []RowExpr{Attr(1, "a"), Attr(0, "b")}
				}
				for _, pred := range preds {
					var want [][]uint64
					for _, k := range common {
						if pred != nil && (k < pred[0].Lo || k > pred[0].Hi) {
							continue
						}
						for _, ai := range aRows[k] {
							for _, bi := range bRows[k] {
								want = append(want, []uint64{k, ai, bi})
							}
						}
						if !aDrives { // b's rows are the outer loop
							n := len(aRows[k]) * len(bRows[k])
							rows := want[len(want)-n:]
							slices.SortStableFunc(rows, func(x, y []uint64) int { return int(x[2]) - int(y[2]) })
						}
					}
					for _, workers := range []int{1, 2, 3} {
						plan := &Plan{Root: &SelectJoin{
							SelInput: &Base{Table: drv}, Pred: pred,
							Main: &Base{Table: main}, ProbeMainWith: Ref{Input: 0, Attr: "k"},
							Out: OutputSpec{Name: "out", Key: SimpleKey("k", 64), KeyRefs: []Ref{{Input: 0, Attr: "k"}},
								Cols: []string{"a", "b"}, ColExprs: cols},
						}}
						out, _, err := run(t, EnvConfig{Workers: workers}, plan, Options{})
						if err != nil {
							t.Fatal(err)
						}
						if got := Extract(out).Rows; !sameRows(got, want) {
							t.Fatalf("driver a %v, Pred %#x, Workers %d: %d rows %#x, want %d rows in key order",
								aDrives, pred, workers, len(got), got[:min(len(got), 4)], len(want))
						}
					}
				}
			}
		})
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
		t2.Idx.Iterate(func(lf *Leaf) bool {
			lf.Vals.Scan(func(row []uint64) bool {
				m[[2]uint64{lf.Key, row[0]}]++
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

// TestPartialFoldKeepsRowOrder: folding the later worker partials into the
// first gives the table that one index gets from every partial's rows
// inserted in partial order: the same keys in the same order and, per key,
// the same row sequence. Folding, plain and width-0 outputs, a KISS key and
// a prefix-tree key, 1–5 partials, some of them empty (the first included).
func TestPartialFoldKeepsRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, bits := range []uint{24, 40} {
		for _, c := range []struct {
			name string
			cols []string
			fold func(dst, src []uint64)
		}{
			{"folding", []string{"v"}, FoldSum(0)},
			{"plain", []string{"v"}, nil},
			{"plain-width-0", nil, nil},
		} {
			spec := &OutputSpec{Name: "m", Key: SimpleKey("k", bits), Cols: c.cols, Fold: c.fold}
			for n := 1; n <= 5; n++ {
				want := newOutputIndex(spec, nil)
				partials := make([]*IndexedTable, n)
				for p := range partials {
					idx := newOutputIndex(spec, nil)
					if (p+n)%3 != 0 {
						for range 3000 {
							k := uint64(rng.Intn(2048)) << (bits - 11)
							row := []uint64{uint64(rng.Intn(1000))}[:len(c.cols)]
							idx.Insert(k, row)
							want.Insert(k, row)
						}
					}
					partials[p] = NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx)
				}
				got := partials[0].Idx
				if err := foldInto(nil, got, partials[1:]); err != nil {
					t.Fatal(err)
				}
				if g, w := rowSequence(got), rowSequence(want); !slices.Equal(g, w) {
					t.Fatalf("%d bits, %s, %d partials: folded table differs from the in-order insert (%d vs %d words)",
						bits, c.name, n, len(g), len(w))
				}
			}
		}
	}
}

// rowSequence flattens an index in key order: each key, its row count and
// its rows in duplicate-list order.
func rowSequence(idx Index) []uint64 {
	var seq []uint64
	idx.Iterate(func(lf *Leaf) bool {
		seq = append(seq, lf.Key, uint64(lf.Vals.Len()))
		lf.Vals.Scan(func(row []uint64) bool {
			seq = append(seq, row...)
			return true
		})
		return true
	})
	return seq
}

// rendezvousIndex is an Index whose LookupBatch waits, up to a timeout,
// until two goroutines are inside it at once; after one timeout it stops
// waiting.
type rendezvousIndex struct {
	Index
	inside  atomic.Int32
	met     chan struct{}
	meet    sync.Once
	timeout time.Duration
	missed  atomic.Bool
}

func (r *rendezvousIndex) LookupBatch(keys []uint64, visit func(i int, lf *Leaf)) {
	if r.inside.Add(1) >= 2 {
		r.meet.Do(func() { close(r.met) })
	}
	if !r.missed.Load() {
		select {
		case <-r.met:
		case <-time.After(r.timeout):
			r.missed.Store(true)
		}
	}
	r.Index.LookupBatch(keys, visit)
	r.inside.Add(-1)
}

// TestMorselFinishesItsProbes: a select-join whose 8 morsels each hold
// fewer driving keys than the joinbuffer flushes at runs its main probes
// inside the morsels, on both workers of the pool. The main input only
// answers once two lookups are in flight at once, so a select-join that
// leaves its probes to a serial pass after the parallel region waits out
// the timeout.
func TestMorselFinishesItsProbes(t *testing.T) {
	const keys = 80 // 10 driving keys per morsel, under DefaultBufferSize
	drive := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
	fact := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
	var want uint64
	for k := uint64(0); k < keys; k++ {
		drive.Insert(k, []uint64{k})
		for r := uint64(0); r < 3; r++ {
			fact.Insert(k, []uint64{k + r})
			want += k + r
		}
	}
	main := &rendezvousIndex{Index: fact, met: make(chan struct{}), timeout: 5 * time.Second}
	sj := &SelectJoin{
		SelInput:      &Base{Table: NewIndexedTable("drive", SimpleKey("k", 16), []string{"v"}, drive)},
		Main:          &Base{Table: NewIndexedTable("fact", SimpleKey("k", 16), []string{"x"}, main)},
		ProbeMainWith: Ref{Input: 0, Attr: "k"},
		Out: OutputSpec{
			Name:     "Γ",
			Cols:     []string{"sum_x"},
			ColExprs: []RowExpr{Attr(1, "x")},
			Fold:     FoldSum(0),
		},
	}
	out, stats, err := run(t, EnvConfig{Workers: 2}, &Plan{Root: sj}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if main.missed.Load() {
		t.Error("no two main probes ran at once: the morsels left their probes to one goroutine")
	}
	op := stats.Ops[len(stats.Ops)-1]
	if op.Morsels != 2*morselsPerWorker || op.Workers != 2 {
		t.Errorf("[%d workers, %d morsels], want [2 workers, %d morsels]", op.Workers, op.Morsels, 2*morselsPerWorker)
	}
	if res := Extract(out); len(res.Rows) != 1 || res.Rows[0][0] != want {
		t.Errorf("result %v, want one row summing to %d", res.Rows, want)
	}
}
