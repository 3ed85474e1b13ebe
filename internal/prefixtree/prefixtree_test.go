package prefixtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"qppt/internal/arena"
)

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{PrefixLen: 17}); err == nil {
		t.Error("PrefixLen 17 accepted")
	}
	if _, err := New(Config{KeyBits: 65}); err == nil {
		t.Error("KeyBits 65 accepted")
	}
	if _, err := New(Config{PayloadWidth: -1}); err == nil {
		t.Error("negative PayloadWidth accepted")
	}
	tr := newTree(t, Config{})
	if tr.cfg.PrefixLen != 4 || tr.KeyBits() != 64 {
		t.Errorf("defaults: k'=%d bits=%d, want 4/64", tr.cfg.PrefixLen, tr.KeyBits())
	}
}

func TestInsertLookupSmall(t *testing.T) {
	tr := newTree(t, Config{PayloadWidth: 1})
	keys := []uint64{0, 1, 15, 16, 255, 256, 1 << 32, ^uint64(0)}
	for i, k := range keys {
		tr.Insert(k, []uint64{uint64(i)})
	}
	if tr.Keys() != len(keys) {
		t.Fatalf("Keys = %d, want %d", tr.Keys(), len(keys))
	}
	for i, k := range keys {
		lf := tr.Lookup(k)
		if lf == nil {
			t.Fatalf("key %#x not found", k)
		}
		if lf.Vals.First()[0] != uint64(i) {
			t.Errorf("key %#x payload = %d, want %d", k, lf.Vals.First()[0], i)
		}
	}
	if tr.Lookup(2) != nil {
		t.Error("absent key found")
	}
}

func TestDuplicatesAccumulate(t *testing.T) {
	tr := newTree(t, Config{PayloadWidth: 1})
	for i := 0; i < 1000; i++ {
		tr.Insert(42, []uint64{uint64(i)})
	}
	if tr.Keys() != 1 || tr.Rows() != 1000 {
		t.Fatalf("Keys/Rows = %d/%d, want 1/1000", tr.Keys(), tr.Rows())
	}
	lf := tr.Lookup(42)
	i := 0
	lf.Vals.Scan(func(row []uint64) bool {
		if row[0] != uint64(i) {
			t.Fatalf("row %d = %d", i, row[0])
		}
		i++
		return true
	})
	if i != 1000 {
		t.Fatalf("scanned %d rows", i)
	}
}

func TestFoldAggregates(t *testing.T) {
	tr := newTree(t, Config{
		PayloadWidth: 1,
		Fold:         func(dst, src []uint64) { dst[0] += src[0] },
	})
	for i := 1; i <= 100; i++ {
		tr.Insert(uint64(i%10), []uint64{uint64(i)})
	}
	if tr.Keys() != 10 || tr.Rows() != 10 {
		t.Fatalf("Keys/Rows = %d/%d, want 10/10", tr.Keys(), tr.Rows())
	}
	var total uint64
	tr.Iterate(func(lf *Leaf) bool {
		total += lf.Vals.First()[0]
		return true
	})
	if total != 5050 {
		t.Fatalf("sum of aggregates = %d, want 5050", total)
	}
}

func TestIterateAscending(t *testing.T) {
	for _, kPrime := range []uint{1, 3, 4, 8} {
		tr := newTree(t, Config{PrefixLen: kPrime})
		rng := rand.New(rand.NewSource(7))
		want := map[uint64]bool{}
		for i := 0; i < 5000; i++ {
			k := rng.Uint64()
			tr.Insert(k, nil)
			want[k] = true
		}
		var got []uint64
		tr.Iterate(func(lf *Leaf) bool {
			got = append(got, lf.Key)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("k'=%d: iterated %d keys, want %d", kPrime, len(got), len(want))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("k'=%d: iteration not in ascending key order", kPrime)
		}
	}
}

func TestNarrowKeyBits(t *testing.T) {
	tr := newTree(t, Config{KeyBits: 32})
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i*1234567%4294967296, nil)
	}
	if maxDepth(tr, rootNode, 0) >= levels32(t, tr) {
		// 32-bit keys at k'=4 need at most 8 levels; dynamic expansion
		// keeps actual depth lower for sparse data.
		t.Logf("depth = %d", maxDepth(tr, rootNode, 0))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized key did not panic")
			}
		}()
		tr.Insert(1<<32, nil)
	}()
}

// maxDepth returns the deepest leaf level below node n (root = level 0).
// A freshly filled dense tree of n keys has depth ~ log2(n)/k′ thanks to
// dynamic expansion.
func maxDepth(t *Tree, n uint32, level int) int {
	d := level
	for _, v := range t.nodes.Block(n) {
		if r := arena.Ref(v); !r.IsNil() && !r.IsLeaf() {
			d = max(d, maxDepth(t, r.Index(), level+1))
		}
	}
	return d
}

func levels32(t *testing.T, tr *Tree) int {
	t.Helper()
	return int((tr.KeyBits() + tr.cfg.PrefixLen - 1) / tr.cfg.PrefixLen)
}

func TestRange(t *testing.T) {
	tr := newTree(t, Config{})
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i*3, nil)
	}
	cases := []struct {
		lo, hi uint64
		want   int
	}{
		{0, 2997, 1000},
		{0, 0, 1},
		{1, 2, 0},
		{3, 3, 1},
		{100, 200, 33}, // keys 102, 105, ..., 198
		{2998, 1 << 40, 0},
		{500, 499, 0}, // inverted range
	}
	for _, c := range cases {
		n := 0
		prev := uint64(0)
		first := true
		tr.Range(c.lo, c.hi, func(lf *Leaf) bool {
			if lf.Key < c.lo || lf.Key > c.hi {
				t.Fatalf("range [%d,%d] visited key %d", c.lo, c.hi, lf.Key)
			}
			if !first && lf.Key <= prev {
				t.Fatalf("range visited keys out of order")
			}
			prev, first = lf.Key, false
			n++
			return true
		})
		if n != c.want {
			t.Errorf("range [%d,%d] visited %d keys, want %d", c.lo, c.hi, n, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	tr := newTree(t, Config{})
	if _, ok := tr.Min(); ok {
		t.Error("Min on empty tree reported ok")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max on empty tree reported ok")
	}
	keys := []uint64{500, 2, 999999, 42, 1 << 50}
	for _, k := range keys {
		tr.Insert(k, nil)
	}
	if mn, _ := tr.Min(); mn != 2 {
		t.Errorf("Min = %d, want 2", mn)
	}
	if mx, _ := tr.Max(); mx != 1<<50 {
		t.Errorf("Max = %d, want 2^50", mx)
	}
}

// TestPropertyOracle drives random insert/delete/lookup sequences against a
// map oracle across several tree geometries.
func TestPropertyOracle(t *testing.T) {
	for _, cfg := range []Config{
		{PrefixLen: 4, KeyBits: 64, PayloadWidth: 1},
		{PrefixLen: 8, KeyBits: 32, PayloadWidth: 1},
		{PrefixLen: 3, KeyBits: 20, PayloadWidth: 1},
		{PrefixLen: 16, KeyBits: 64, PayloadWidth: 1},
	} {
		cfg := cfg
		f := func(ops []uint32, seed int64) bool {
			tr := MustNew(cfg)
			oracle := map[uint64]uint64{}
			keyMask := ^uint64(0)
			if cfg.KeyBits < 64 {
				keyMask = uint64(1)<<cfg.KeyBits - 1
			}
			for _, op := range ops {
				k := (uint64(op) * 2654435761) & keyMask
				switch op % 3 {
				case 0, 1:
					tr.Insert(k, []uint64{uint64(op)})
					if _, dup := oracle[k]; !dup {
						oracle[k] = uint64(op)
					}
				case 2:
					if _, present := oracle[k]; (tr.Lookup(k) != nil) != present {
						return false
					}
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
			n := 0
			ok := tr.Iterate(func(lf *Leaf) bool {
				if _, present := oracle[lf.Key]; !present {
					return false
				}
				n++
				return true
			})
			return ok && n == len(oracle)
		}
		cfg2 := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
		if err := quick.Check(f, cfg2); err != nil {
			t.Fatalf("k'=%d bits=%d: %v", cfg.PrefixLen, cfg.KeyBits, err)
		}
	}
}

func TestPropertyRangeMatchesOracle(t *testing.T) {
	f := func(keys []uint16, lo16, hi16 uint16) bool {
		tr := MustNew(Config{KeyBits: 16})
		oracle := map[uint64]bool{}
		for _, k := range keys {
			tr.Insert(uint64(k), nil)
			oracle[uint64(k)] = true
		}
		lo, hi := uint64(lo16), uint64(hi16)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for k := range oracle {
			if k >= lo && k <= hi {
				want++
			}
		}
		got := 0
		tr.Range(lo, hi, func(lf *Leaf) bool { got++; return true })
		return got == want
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAndDepthTradeoffAcrossKPrime(t *testing.T) {
	// Section 2.1: higher k' halves the depth but costs memory on sparse
	// distributions.
	sparse := make([]uint64, 20000)
	rng := rand.New(rand.NewSource(3))
	for i := range sparse {
		sparse[i] = rng.Uint64()
	}
	t4 := MustNew(Config{PrefixLen: 4})
	t8 := MustNew(Config{PrefixLen: 8})
	for _, k := range sparse {
		t4.Insert(k, nil)
		t8.Insert(k, nil)
	}
	if maxDepth(t8, rootNode, 0) >= maxDepth(t4, rootNode, 0) {
		t.Errorf("k'=8 depth %d not lower than k'=4 depth %d", maxDepth(t8, rootNode, 0), maxDepth(t4, rootNode, 0))
	}
	if t8.Bytes() <= t4.Bytes() {
		t.Errorf("k'=8 bytes %d not higher than k'=4 bytes %d on sparse keys", t8.Bytes(), t4.Bytes())
	}
}
