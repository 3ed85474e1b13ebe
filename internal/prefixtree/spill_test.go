package prefixtree

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Freeze must detach the tree's heap footprint and Thaw must restore an
// index that answers every observable query identically — including after
// deletes punched holes into the node and leaf free lists, and across
// another mutation + freeze cycle.
func TestFreezeThawRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{PrefixLen: 4, KeyBits: 64, PayloadWidth: 2},
		{PrefixLen: 8, KeyBits: 32, PayloadWidth: 1},
		{PrefixLen: 4, KeyBits: 16, PayloadWidth: 0}, // existence index
	} {
		tr := MustNew(cfg)
		model := map[uint64][][]uint64{}
		rng := rand.New(rand.NewSource(int64(cfg.PrefixLen)))
		keyMask := uint64(1)<<cfg.KeyBits - 1
		if cfg.KeyBits == 64 {
			keyMask = ^uint64(0)
		}
		insert := func(n int) {
			for i := 0; i < n; i++ {
				k := rng.Uint64() & keyMask
				if rng.Intn(2) == 0 {
					k = uint64(rng.Intn(500)) & keyMask
				}
				row := make([]uint64, cfg.PayloadWidth)
				for j := range row {
					row[j] = rng.Uint64()
				}
				tr.Insert(k, row)
				model[k] = append(model[k], row)
			}
		}
		insert(3000)
		// Punch holes so free lists round-trip.
		deleted := 0
		for k := range model {
			if deleted >= 100 {
				break
			}
			tr.Delete(k)
			delete(model, k)
			deleted++
		}

		check := func(stage string) {
			t.Helper()
			if tr.Keys() != len(model) {
				t.Fatalf("%s: Keys = %d, want %d", stage, tr.Keys(), len(model))
			}
			for k, want := range model {
				lf := tr.Lookup(k)
				if lf == nil {
					t.Fatalf("%s: key %#x missing", stage, k)
				}
				if cfg.PayloadWidth > 0 && !reflect.DeepEqual(lf.Vals.Rows(), want) {
					t.Fatalf("%s: rows for %#x differ", stage, k)
				}
				if lf.Vals.Len() != len(want) {
					t.Fatalf("%s: %#x has %d rows, want %d", stage, k, lf.Vals.Len(), len(want))
				}
			}
			prev := uint64(0)
			first := true
			tr.Iterate(func(lf *Leaf) bool {
				if !first && lf.Key <= prev {
					t.Fatalf("%s: iteration out of order", stage)
				}
				prev, first = lf.Key, false
				if _, ok := model[lf.Key]; !ok {
					t.Fatalf("%s: iteration visits deleted key %#x", stage, lf.Key)
				}
				return true
			})
		}
		check("before freeze")

		resident := tr.Bytes()
		var buf bytes.Buffer
		if err := tr.Freeze(&buf); err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		if !tr.Frozen() {
			t.Fatal("tree not marked frozen")
		}
		if tr.Bytes() >= resident/4 {
			t.Fatalf("frozen tree still holds %d of %d bytes", tr.Bytes(), resident)
		}
		if tr.Keys() != len(model) {
			t.Fatalf("frozen tree lost counters: Keys = %d", tr.Keys())
		}
		if err := tr.Freeze(&buf); err == nil {
			t.Fatal("double Freeze did not fail")
		}

		if err := tr.Thaw(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("Thaw: %v", err)
		}
		if tr.Frozen() {
			t.Fatal("thawed tree still marked frozen")
		}
		check("after thaw")

		// The thawed tree must keep working as a live index: mutate, then
		// freeze/thaw again to prove the free lists survived.
		insert(500)
		check("after post-thaw inserts")
		var buf2 bytes.Buffer
		if err := tr.Freeze(&buf2); err != nil {
			t.Fatalf("second Freeze: %v", err)
		}
		if err := tr.Thaw(&buf2); err != nil {
			t.Fatalf("second Thaw: %v", err)
		}
		check("after second thaw")
	}
}

// A folding (aggregating) tree stores exactly one row per key; the row
// must survive the spill byte-for-byte.
func TestFreezeThawFoldingTree(t *testing.T) {
	tr := MustNew(Config{PrefixLen: 4, KeyBits: 32, PayloadWidth: 1,
		Fold: func(dst, src []uint64) { dst[0] += src[0] }})
	want := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := uint64(i % 700)
		tr.Insert(k, []uint64{uint64(i)})
		want[k] += uint64(i)
	}
	var buf bytes.Buffer
	if err := tr.Freeze(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Thaw(&buf); err != nil {
		t.Fatal(err)
	}
	for k, sum := range want {
		lf := tr.Lookup(k)
		if lf == nil || lf.Vals.Len() != 1 || lf.Vals.First()[0] != sum {
			t.Fatalf("key %d: folded row lost (leaf %v)", k, lf)
		}
	}
}
