package prefixtree

import (
	"reflect"
	"testing"
)

// TestWideProbeIsMiss: a probe key wider than the tree's KeyBits — a
// foreign key wider than the probed index — is a miss on both lookup paths,
// even where its low bits name a stored key, and the in-range keys of the
// same batch still hit. Range clips a bound past the key width. Inserting
// such a key still panics, by Insert and by InsertBatch.
func TestWideProbeIsMiss(t *testing.T) {
	const bits = 40
	const top = uint64(1)<<bits - 1
	tr := newTree(t, Config{KeyBits: bits, PayloadWidth: 1})
	for _, k := range []uint64{0, 5, top} {
		tr.Insert(k, []uint64{k})
	}
	keys := []uint64{5, top + 1, top, top + 1 + 5, 0, ^uint64(0), 7}
	want := []bool{true, false, true, false, true, false, false}
	for i, k := range keys {
		if lf := tr.Lookup(k); (lf != nil) != want[i] || lf != nil && lf.Key != k {
			t.Errorf("Lookup(%#x) = %v, want hit %v", k, lf, want[i])
		}
	}
	seen := 0
	tr.LookupBatch(keys, func(i int, lf *Leaf) {
		seen++
		if (lf != nil) != want[i] || lf != nil && lf.Key != keys[i] {
			t.Errorf("LookupBatch key %#x = %v, want hit %v", keys[i], lf, want[i])
		}
	})
	if seen != len(keys) {
		t.Fatalf("LookupBatch visited %d of %d keys", seen, len(keys))
	}
	for _, c := range []struct {
		lo, hi uint64
		want   []uint64
	}{
		{5, top + 1, []uint64{5, top}},
		{0, ^uint64(0), []uint64{0, 5, top}},
		{top + 1, ^uint64(0), nil},
	} {
		var got []uint64
		tr.Range(c.lo, c.hi, func(lf *Leaf) bool { got = append(got, lf.Key); return true })
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Range(%#x, %#x) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	for name, insert := range map[string]func(){
		"Insert":      func() { tr.Insert(top+1, []uint64{0}) },
		"InsertBatch": func() { tr.InsertBatch([]uint64{5, top + 1}, [][]uint64{{0}, {0}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of key %#x did not panic", name, top+1)
				}
			}()
			insert()
		}()
	}
}
