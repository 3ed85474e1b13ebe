package kisstree

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Freeze/Thaw must round-trip the KISS-Tree — root page directory, node
// arena, compressed nodes and content leaves — in both node layouts, and
// the thawed tree must keep working as a live index.
func TestKissFreezeThawRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		tr := MustNew(Config{PayloadWidth: 2, Compress: compress})
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
				t.Fatalf("compress=%v %s: Keys = %d, want %d", compress, stage, tr.Keys(), len(model))
			}
			for k, want := range model {
				lf := tr.Lookup(k)
				if lf == nil || !reflect.DeepEqual(lf.Vals.Rows(), want) {
					t.Fatalf("compress=%v %s: rows for %#x differ", compress, stage, k)
				}
			}
			prev, first := uint64(0), true
			n := 0
			tr.Iterate(func(lf *Leaf) bool {
				if !first && lf.Key <= prev {
					t.Fatalf("compress=%v %s: iteration out of order", compress, stage)
				}
				prev, first = lf.Key, false
				n++
				return true
			})
			if n != len(model) {
				t.Fatalf("compress=%v %s: iterated %d keys, want %d", compress, stage, n, len(model))
			}
		}
		check("before freeze")

		resident := tr.Bytes()
		var buf bytes.Buffer
		if err := tr.codec().Freeze(&buf); err != nil {
			t.Fatalf("compress=%v: Freeze: %v", compress, err)
		}
		if !tr.Frozen() {
			t.Fatal("tree not marked frozen")
		}
		if tr.Bytes() >= resident/4 {
			t.Fatalf("compress=%v: frozen tree still holds %d of %d bytes", compress, tr.Bytes(), resident)
		}
		if err := tr.Thaw(&buf); err != nil {
			t.Fatalf("compress=%v: Thaw: %v", compress, err)
		}
		check("after thaw")

		insert(1000)
		check("after post-thaw inserts")
		var buf2 bytes.Buffer
		if err := tr.codec().Freeze(&buf2); err != nil {
			t.Fatalf("compress=%v: second Freeze: %v", compress, err)
		}
		if err := tr.Thaw(&buf2); err != nil {
			t.Fatalf("compress=%v: second Thaw: %v", compress, err)
		}
		check("after second thaw")
	}
}
