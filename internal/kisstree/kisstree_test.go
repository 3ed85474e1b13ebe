package kisstree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	tr := MustNew(Config{PayloadWidth: 1})
	keys := []uint64{0, 1, 63, 64, 65, 1 << 26, 1<<32 - 1, 12345678}
	for i, k := range keys {
		tr.Insert(k, []uint64{uint64(i)})
	}
	if tr.Keys() != len(keys) {
		t.Fatalf("Keys = %d, want %d", tr.Keys(), len(keys))
	}
	for i, k := range keys {
		lf := tr.Lookup(k)
		if lf == nil {
			t.Fatalf("key %d not found", k)
		}
		if lf.Key != k || lf.Vals.First()[0] != uint64(i) {
			t.Fatalf("key %d wrong leaf", k)
		}
	}
	if tr.Lookup(2) != nil || tr.Lookup(1<<31) != nil {
		t.Fatal("absent key found")
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
	tr := MustNew(Config{PayloadWidth: 1})
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
			t.Fatal("iteration out of order")
		}
		if !oracle[lf.Key] {
			t.Fatalf("phantom key %d", lf.Key)
		}
		prev = lf.Key
		n++
		return true
	})
	if n != len(oracle) {
		t.Fatalf("iterated %d keys, want %d", n, len(oracle))
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
			t.Fatal("range violated")
		}
		got++
		return true
	})
	if got != want {
		t.Fatalf("range visited %d, want %d", got, want)
	}
}

func TestMinMax(t *testing.T) {
	tr := MustNew(Config{PayloadWidth: 1})
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

func TestPropertyOracle(t *testing.T) {
	f := func(ops []uint32) bool {
		tr := MustNew(Config{PayloadWidth: 1})
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
		t.Fatal(err)
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
// over a dense 10k-key tree.
func TestLookupBatchMatchesScalar(t *testing.T) {
	tr := MustNew(Config{PayloadWidth: 1})
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Uint32() % 200000)
		tr.Insert(k, []uint64{k})
	}
	batch := make([]uint64, 4096)
	for i := range batch {
		batch[i] = uint64(rng.Uint32() % 400000)
	}
	checkBatch(t, tr, batch, "dense")
}

// TestKissKernelMatchesScalar holds LookupBatch to per-key Lookup over a
// sparse 32-bit tree, across hits, misses,
// duplicates, and empty batches. The name is kept from the SWAR descent
// it used to compare against the job loop; the shapes are unchanged.
func TestKissKernelMatchesScalar(t *testing.T) {
	tr := MustNew(Config{})
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
	checkBatch(t, tr, batch, "mixed")
	checkBatch(t, tr, batch[:0], "empty")
	checkBatch(t, tr, batch[len(present):len(present)+64], "all-dup")
}

func TestInsertBatchMatchesScalar(t *testing.T) {
	cfg := Config{PayloadWidth: 1}
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
		t.Fatal("keys/rows mismatch")
	}
	scalar.Iterate(func(lf *Leaf) bool {
		blf := batched.Lookup(lf.Key)
		if blf == nil || blf.Vals.Len() != lf.Vals.Len() {
			t.Fatalf("key %d differs", lf.Key)
		}
		return true
	})
}
