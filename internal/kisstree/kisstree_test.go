package kisstree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func configs() []Config {
	return []Config{
		{PayloadWidth: 1},
		{PayloadWidth: 1, Compress: true},
	}
}

func TestInsertLookup(t *testing.T) {
	for _, cfg := range configs() {
		tr := MustNew(cfg)
		keys := []uint64{0, 1, 63, 64, 65, 1 << 26, 1<<32 - 1, 12345678}
		for i, k := range keys {
			tr.Insert(k, []uint64{uint64(i)})
		}
		if tr.Keys() != len(keys) {
			t.Fatalf("compress=%v: Keys = %d, want %d", cfg.Compress, tr.Keys(), len(keys))
		}
		for i, k := range keys {
			lf := tr.Lookup(k)
			if lf == nil {
				t.Fatalf("compress=%v: key %d not found", cfg.Compress, k)
			}
			if lf.Key != k || lf.Vals.First()[0] != uint64(i) {
				t.Fatalf("compress=%v: key %d wrong leaf", cfg.Compress, k)
			}
		}
		if tr.Lookup(2) != nil || tr.Lookup(1<<31) != nil {
			t.Fatalf("compress=%v: absent key found", cfg.Compress)
		}
	}
}

func TestKeyRangePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("33-bit key did not panic")
		}
	}()
	MustNew(Config{}).Insert(1<<32, nil)
}

func TestDuplicatesAndFold(t *testing.T) {
	tr := MustNew(Config{PayloadWidth: 1})
	for i := 0; i < 100; i++ {
		tr.Insert(7, []uint64{uint64(i)})
	}
	if tr.Keys() != 1 || tr.Rows() != 100 {
		t.Fatalf("Keys/Rows = %d/%d", tr.Keys(), tr.Rows())
	}
	agg := MustNew(Config{PayloadWidth: 1, Fold: func(dst, src []uint64) { dst[0] += src[0] }})
	for i := uint64(1); i <= 100; i++ {
		agg.Insert(i%5, []uint64{i})
	}
	if agg.Keys() != 5 || agg.Rows() != 5 {
		t.Fatalf("agg Keys/Rows = %d/%d", agg.Keys(), agg.Rows())
	}
	var total uint64
	agg.Iterate(func(lf *Leaf) bool { total += lf.Vals.First()[0]; return true })
	if total != 5050 {
		t.Fatalf("aggregate total = %d", total)
	}
}

func TestIterateOrderAndRange(t *testing.T) {
	for _, cfg := range configs() {
		tr := MustNew(cfg)
		rng := rand.New(rand.NewSource(17))
		oracle := map[uint64]bool{}
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Uint32())
			tr.Insert(k, []uint64{k})
			oracle[k] = true
		}
		var prev uint64
		n := 0
		tr.Iterate(func(lf *Leaf) bool {
			if n > 0 && lf.Key <= prev {
				t.Fatalf("compress=%v: iteration out of order", cfg.Compress)
			}
			if !oracle[lf.Key] {
				t.Fatalf("compress=%v: phantom key %d", cfg.Compress, lf.Key)
			}
			prev = lf.Key
			n++
			return true
		})
		if n != len(oracle) {
			t.Fatalf("compress=%v: iterated %d keys, want %d", cfg.Compress, n, len(oracle))
		}

		lo, hi := uint64(1<<30), uint64(3<<30)
		want := 0
		for k := range oracle {
			if k >= lo && k <= hi {
				want++
			}
		}
		got := 0
		tr.Range(lo, hi, func(lf *Leaf) bool {
			if lf.Key < lo || lf.Key > hi {
				t.Fatalf("compress=%v: range violated", cfg.Compress)
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("compress=%v: range visited %d, want %d", cfg.Compress, got, want)
		}
	}
}

func TestMinMax(t *testing.T) {
	for _, cfg := range configs() {
		tr := MustNew(cfg)
		if _, ok := tr.Min(); ok {
			t.Fatal("Min on empty ok")
		}
		keys := []uint64{100, 5, 999999, 1 << 31}
		for _, k := range keys {
			tr.Insert(k, []uint64{k})
		}
		if mn, _ := tr.Min(); mn != 5 {
			t.Fatalf("Min = %d", mn)
		}
		if mx, _ := tr.Max(); mx != 1<<31 {
			t.Fatalf("Max = %d", mx)
		}
	}
}

func TestCompressionRCUCopies(t *testing.T) {
	// Dense inserts into one node: the compressed tree must copy on every
	// new key after the first, the uncompressed tree never.
	comp := MustNew(Config{Compress: true})
	flat := MustNew(Config{})
	for i := uint64(0); i < 64; i++ {
		comp.Insert(i, nil)
		flat.Insert(i, nil)
	}
	if comp.RCUCopies() != 63 {
		t.Errorf("compressed RCU copies = %d, want 63", comp.RCUCopies())
	}
	if flat.RCUCopies() != 0 {
		t.Errorf("uncompressed RCU copies = %d, want 0", flat.RCUCopies())
	}
}

func TestCompressionSavesMemoryOnSparseKeys(t *testing.T) {
	comp := MustNew(Config{Compress: true})
	flat := MustNew(Config{})
	// One key per second-level node: compression stores 1 entry vs 64 slots.
	for i := uint64(0); i < 1000; i++ {
		comp.Insert(i<<leafBits, nil)
		flat.Insert(i<<leafBits, nil)
	}
	if comp.Bytes() >= flat.Bytes() {
		t.Errorf("compressed %d B >= uncompressed %d B on sparse keys", comp.Bytes(), flat.Bytes())
	}
}

func TestPropertyOracle(t *testing.T) {
	for _, cfg := range configs() {
		cfg := cfg
		f := func(ops []uint32) bool {
			tr := MustNew(cfg)
			oracle := map[uint64]uint64{}
			for _, op := range ops {
				k := uint64(op % 100000)
				if op%4 == 3 {
					if _, present := oracle[k]; (tr.Lookup(k) != nil) != present {
						return false
					}
					continue
				}
				tr.Insert(k, []uint64{uint64(op)})
				if _, dup := oracle[k]; !dup {
					oracle[k] = uint64(op)
				}
			}
			if tr.Keys() != len(oracle) {
				return false
			}
			for k, v := range oracle {
				lf := tr.Lookup(k)
				if lf == nil || lf.Vals.First()[0] != v {
					return false
				}
			}
			return true
		}
		qcfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(23))}
		if err := quick.Check(f, qcfg); err != nil {
			t.Fatalf("compress=%v: %v", cfg.Compress, err)
		}
	}
}

// checkBatch runs one LookupBatch and holds it to the per-key Lookup
// oracle: one visit per key, in batch order, each with the leaf Lookup
// returns for that key (nil for a miss) — the same hit set, the same leaf
// identity and the same visit order.
func checkBatch(t *testing.T, tr *Tree, batch []uint64, label string) {
	t.Helper()
	next := 0
	tr.LookupBatch(batch, func(i int, lf *Leaf) {
		if i != next {
			t.Fatalf("%s: visit %d is batch[%d], want batch order", label, next, i)
		}
		next++
		if want := tr.Lookup(batch[i]); lf != want {
			t.Fatalf("%s: batch[%d]=%d resolved to %p, Lookup to %p", label, i, batch[i], lf, want)
		}
	})
	if next != len(batch) {
		t.Fatalf("%s: %d visits for %d keys", label, next, len(batch))
	}
}

// TestLookupBatchMatchesScalar checks LookupBatch against per-key Lookup
// on both node layouts over a dense 10k-key tree.
func TestLookupBatchMatchesScalar(t *testing.T) {
	for _, cfg := range configs() {
		tr := MustNew(cfg)
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 10000; i++ {
			k := uint64(rng.Uint32() % 200000)
			tr.Insert(k, []uint64{k})
		}
		batch := make([]uint64, 4096)
		for i := range batch {
			batch[i] = uint64(rng.Uint32() % 400000)
		}
		checkBatch(t, tr, batch, fmt.Sprintf("compress=%v", cfg.Compress))
	}
}

// TestKissKernelMatchesScalar holds LookupBatch to per-key Lookup on both
// node layouts over a sparse 32-bit tree, across hits, misses,
// duplicates, and empty batches. The name is kept from the SWAR descent
// it used to compare against the job loop; the shapes are unchanged.
func TestKissKernelMatchesScalar(t *testing.T) {
	for _, compress := range []bool{false, true} {
		label := fmt.Sprintf("compress=%v", compress)
		tr := MustNew(Config{Compress: compress})
		rng := rand.New(rand.NewSource(71))
		present := make([]uint64, 400)
		for i := range present {
			present[i] = uint64(rng.Uint32())
		}
		tr.InsertBatch(present, nil)
		batch := append([]uint64(nil), present...) // hits
		batch = append(batch, present[:64]...)     // duplicates
		for i := 0; i < 300; i++ {                 // mostly misses
			batch = append(batch, uint64(rng.Uint32()))
		}
		checkBatch(t, tr, batch, label+" mixed")
		checkBatch(t, tr, batch[:0], label+" empty")
		checkBatch(t, tr, batch[len(present):len(present)+64], label+" all-dup")
	}
}

func TestInsertBatchMatchesScalar(t *testing.T) {
	for _, cfg := range configs() {
		rng := rand.New(rand.NewSource(31))
		keys := make([]uint64, 5000)
		rows := make([][]uint64, len(keys))
		for i := range keys {
			keys[i] = uint64(rng.Uint32() % 10000)
			rows[i] = []uint64{uint64(i)}
		}
		scalar := MustNew(cfg)
		batched := MustNew(cfg)
		for i, k := range keys {
			scalar.Insert(k, rows[i])
		}
		batched.InsertBatch(keys, rows)
		if scalar.Keys() != batched.Keys() || scalar.Rows() != batched.Rows() {
			t.Fatalf("compress=%v: keys/rows mismatch", cfg.Compress)
		}
		scalar.Iterate(func(lf *Leaf) bool {
			blf := batched.Lookup(lf.Key)
			if blf == nil || blf.Vals.Len() != lf.Vals.Len() {
				t.Fatalf("compress=%v: key %d differs", cfg.Compress, lf.Key)
			}
			return true
		})
	}
}

func TestSyncScanIntersection(t *testing.T) {
	for _, cfgA := range configs() {
		for _, cfgB := range configs() {
			a := MustNew(Config{Compress: cfgA.Compress})
			b := MustNew(Config{Compress: cfgB.Compress})
			sa, sb := map[uint64]bool{}, map[uint64]bool{}
			rng := rand.New(rand.NewSource(37))
			for i := 0; i < 5000; i++ {
				ka, kb := uint64(rng.Uint32()%8000), uint64(rng.Uint32()%8000)
				a.Insert(ka, nil)
				b.Insert(kb, nil)
				sa[ka], sb[kb] = true, true
			}
			want := 0
			for k := range sa {
				if sb[k] {
					want++
				}
			}
			got := 0
			prev, first := uint64(0), true
			SyncScan(a, b, func(la, lb *Leaf) bool {
				if la.Key != lb.Key || !sa[la.Key] || !sb[la.Key] {
					t.Fatal("bad intersection element")
				}
				if !first && la.Key <= prev {
					t.Fatal("intersection out of order")
				}
				prev, first = la.Key, false
				got++
				return true
			})
			if got != want {
				t.Fatalf("intersection size %d, want %d", got, want)
			}
		}
	}
}

func TestSyncScanDisjointRootRanges(t *testing.T) {
	a, b := MustNew(Config{}), MustNew(Config{})
	for i := uint64(0); i < 1000; i++ {
		a.Insert(i, nil)
		b.Insert(i+1<<30, nil)
	}
	SyncScan(a, b, func(la, lb *Leaf) bool {
		t.Fatal("visited key in disjoint trees")
		return false
	})
}

func TestSyncScanEmpty(t *testing.T) {
	a, b := MustNew(Config{}), MustNew(Config{})
	a.Insert(1, nil)
	if !SyncScan(a, b, func(*Leaf, *Leaf) bool { t.Fatal("visit"); return false }) {
		t.Fatal("scan of empty reported early stop")
	}
}
