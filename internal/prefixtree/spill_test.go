package prefixtree

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"qppt/internal/arena"
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

// freezeToFile freezes tr into a temp file and returns it rewound — the
// ReadSeeker shape ThawRange consumes.
func freezeToFile(t *testing.T, tr *Tree) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "freeze-*.spill")
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if err := tr.Freeze(bw); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	return f
}

// ThawRange must restore exactly the leaf chunks the key range touches:
// in-range queries answer identically, the bytes read stay well below a
// full thaw, and a follow-up top-up (and finally a full-span call)
// completes the tree in place.
func TestThawRangePartialRestore(t *testing.T) {
	const n = 40000 // ~10 leaf chunks
	tr := MustNew(Config{PrefixLen: 4, KeyBits: 32, PayloadWidth: 1})
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), []uint64{uint64(i) * 3})
	}
	full := MustNew(Config{PrefixLen: 4, KeyBits: 32, PayloadWidth: 1})
	for i := 0; i < n; i++ {
		full.Insert(uint64(i), []uint64{uint64(i) * 3})
	}
	f := freezeToFile(t, tr)
	defer f.Close()
	fi, _ := f.Stat()

	lo, hi := uint64(1000), uint64(2000)
	nRead, fullyThawed, err := tr.ThawRange(arena.NewSource(f), lo, hi)
	if err != nil {
		t.Fatalf("ThawRange: %v", err)
	}
	if fullyThawed {
		t.Fatal("narrow range reported a full restore")
	}
	if !tr.Partial() {
		t.Fatal("tree not marked partial")
	}
	if nRead >= fi.Size()/2 {
		t.Fatalf("partial thaw read %d of %d file bytes", nRead, fi.Size())
	}
	got := 0
	tr.Range(lo, hi, func(lf *Leaf) bool {
		if lf.Vals.First()[0] != lf.Key*3 {
			t.Fatalf("key %d: wrong payload after partial thaw", lf.Key)
		}
		got++
		return true
	})
	if got != int(hi-lo+1) {
		t.Fatalf("Range after partial thaw visited %d keys, want %d", got, hi-lo+1)
	}

	// Top-up with a second, disjoint range.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.ThawRange(arena.NewSource(f), 30000, 31000); err != nil {
		t.Fatalf("top-up ThawRange: %v", err)
	}
	got = 0
	tr.Range(30000, 31000, func(lf *Leaf) bool { got++; return lf.Vals.First()[0] == lf.Key*3 })
	if got != 1001 {
		t.Fatalf("top-up range visited %d keys", got)
	}

	// Full-span call completes the tree; it must then equal the original.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	_, fullyThawed, err = tr.ThawRange(arena.NewSource(f), 0, ^uint64(0)>>32)
	if err != nil {
		t.Fatal(err)
	}
	if !fullyThawed || tr.Partial() {
		t.Fatal("full-span ThawRange left the tree partial")
	}
	same := true
	tr.Iterate(func(lf *Leaf) bool {
		w := full.Lookup(lf.Key)
		same = w != nil && w.Vals.First()[0] == lf.Vals.First()[0]
		return same
	})
	if !same || tr.Keys() != full.Keys() {
		t.Fatal("completed tree differs from the never-frozen one")
	}
}
