package prefixtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSyncScanSmall(t *testing.T) {
	a := MustNew(Config{})
	b := MustNew(Config{})
	for _, k := range []uint64{1, 5, 100, 1 << 20, 1 << 40} {
		a.Insert(k, nil)
	}
	for _, k := range []uint64{5, 100, 7, 1 << 40, 1 << 41} {
		b.Insert(k, nil)
	}
	var got []uint64
	SyncScan(a, b, 0, a.keyMax(), func(la, lb *Leaf) bool {
		if la.Key != lb.Key {
			t.Fatalf("mismatched leaves: %d vs %d", la.Key, lb.Key)
		}
		got = append(got, la.Key)
		return true
	})
	want := []uint64{5, 100, 1 << 40}
	if len(got) != len(want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intersection = %v, want %v", got, want)
		}
	}
}

func TestSyncScanAsymmetricDepths(t *testing.T) {
	// One tree holds a shallow content node (dynamic expansion) where the
	// other grew a deep subtree under the same fragment path.
	a := MustNew(Config{})
	b := MustNew(Config{})
	a.Insert(0x1000, nil) // alone in its subtree: stays shallow in a
	for i := uint64(0); i < 64; i++ {
		b.Insert(0x1000+i, nil) // forces b to expand the same region
	}
	b.Insert(0xF000_0000_0000_0000, nil)
	a.Insert(0xF000_0000_0000_0000, nil)
	a.Insert(0xF000_0000_0000_0001, nil) // now a is deep where b is shallow
	var got []uint64
	SyncScan(a, b, 0, a.keyMax(), func(la, lb *Leaf) bool {
		got = append(got, la.Key)
		return true
	})
	want := []uint64{0x1000, 0xF000_0000_0000_0000}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("intersection = %#x, want %#x", got, want)
	}
}

func TestSyncScanGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on geometry mismatch")
		}
	}()
	SyncScan(MustNew(Config{PrefixLen: 4}), MustNew(Config{PrefixLen: 8}), 0, 0, nil)
}

func TestSyncScanEarlyStop(t *testing.T) {
	a := MustNew(Config{})
	b := MustNew(Config{})
	for i := uint64(0); i < 100; i++ {
		a.Insert(i, nil)
		b.Insert(i, nil)
	}
	n := 0
	if SyncScan(a, b, 0, a.keyMax(), func(la, lb *Leaf) bool { n++; return n < 10 }) {
		t.Error("early-stopped scan reported completion")
	}
	if n != 10 {
		t.Errorf("visited %d, want 10", n)
	}
}

// TestPropertySyncScanIsSetIntersection: over random key sets and random
// bounds [lo, hi], SyncScan visits exactly the common keys inside the
// bounds, in ascending order.
func TestPropertySyncScanIsSetIntersection(t *testing.T) {
	for _, cfg := range []Config{
		{PrefixLen: 4, KeyBits: 32},
		{PrefixLen: 6, KeyBits: 64},
		{PrefixLen: 2, KeyBits: 16},
	} {
		cfg := cfg
		f := func(ka, kb []uint16, lo16, hi16 uint16) bool {
			lo, hi := uint64(min(lo16, hi16)), uint64(max(lo16, hi16))
			a, b := MustNew(cfg), MustNew(cfg)
			sa, sb := map[uint64]bool{}, map[uint64]bool{}
			for _, k := range ka {
				a.Insert(uint64(k), nil)
				sa[uint64(k)] = true
			}
			for _, k := range kb {
				b.Insert(uint64(k), nil)
				sb[uint64(k)] = true
			}
			want := 0
			for k := range sa {
				if sb[k] && k >= lo && k <= hi {
					want++
				}
			}
			got := 0
			prev, first := uint64(0), true
			ok := SyncScan(a, b, lo, hi, func(la, lb *Leaf) bool {
				if la.Key != lb.Key || !sa[la.Key] || !sb[la.Key] || la.Key < lo || la.Key > hi {
					return false
				}
				if !first && la.Key <= prev {
					return false // must be in ascending order
				}
				prev, first = la.Key, false
				got++
				return true
			})
			return ok && got == want
		}
		qcfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}
		if err := quick.Check(f, qcfg); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
	}
}

// TestSyncScanSkipsSubtrees verifies the performance property that
// motivates the synchronous scan: disjoint regions are never descended
// into. We measure by counting visited leaves on disjoint trees.
func TestSyncScanSkipsSubtrees(t *testing.T) {
	a := MustNew(Config{})
	b := MustNew(Config{})
	for i := uint64(0); i < 10000; i++ {
		a.Insert(i, nil)         // low region
		b.Insert(i+(1<<40), nil) // high region
	}
	SyncScan(a, b, 0, a.keyMax(), func(la, lb *Leaf) bool {
		t.Fatalf("visited key %d in disjoint trees", la.Key)
		return false
	})
}
