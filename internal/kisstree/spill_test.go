package kisstree

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Freeze/Thaw must round-trip the KISS-Tree — root page directory, node
// arena and content leaves — and the thawed tree must keep working as a
// live index.
func TestKissFreezeThawRoundTrip(t *testing.T) {
	tr := MustNew(Config{PayloadWidth: 2})
	model := map[uint64][][]uint64{}
	rng := rand.New(rand.NewSource(7))
	insert := func(n int) {
		for i := 0; i < n; i++ {
			// Bounded domain: spans several root chunks (2^24 keys →
			// 2^18 root buckets) without making the ordered walks in
			// check() traverse the whole 2^26-bucket root range.
			k := uint64(rng.Intn(1 << 24))
			if rng.Intn(2) == 0 {
				k = uint64(rng.Intn(1000))
			}
			row := []uint64{k, rng.Uint64()}
			tr.Insert(k, row)
			model[k] = append(model[k], row)
		}
	}
	insert(4000)

	check := func(stage string) {
		t.Helper()
		if tr.Keys() != len(model) {
			t.Fatalf("%s: Keys = %d, want %d", stage, tr.Keys(), len(model))
		}
		for k, want := range model {
			lf := tr.Lookup(k)
			if lf == nil || !reflect.DeepEqual(lf.Vals.Rows(), want) {
				t.Fatalf("%s: rows for %#x differ", stage, k)
			}
		}
		prev, first := uint64(0), true
		n := 0
		tr.Iterate(func(lf *Leaf) bool {
			if !first && lf.Key <= prev {
				t.Fatalf("%s: iteration out of order", stage)
			}
			prev, first = lf.Key, false
			n++
			return true
		})
		if n != len(model) {
			t.Fatalf("%s: iterated %d keys, want %d", stage, n, len(model))
		}
	}
	check("before freeze")

	resident := tr.Bytes()
	var buf bytes.Buffer
	if err := tr.codec().Freeze(&buf); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if !tr.Frozen() {
		t.Fatal("tree not marked frozen")
	}
	if tr.Bytes() >= resident/4 {
		t.Fatalf("frozen tree still holds %d of %d bytes", tr.Bytes(), resident)
	}
	if err := tr.Thaw(&buf); err != nil {
		t.Fatalf("Thaw: %v", err)
	}
	check("after thaw")

	insert(1000)
	check("after post-thaw inserts")
	var buf2 bytes.Buffer
	if err := tr.codec().Freeze(&buf2); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
	if err := tr.Thaw(&buf2); err != nil {
		t.Fatalf("second Thaw: %v", err)
	}
	check("after second thaw")
}
