package kisstree

import "testing"

// TestWideProbeIsMiss: a probe key past 32 bits — a foreign key wider than
// the probed index — is a miss on both lookup paths, even where its low 32
// bits name a stored key, and the in-range keys of the same batch still
// hit. Inserting such a key still panics, by Insert and by InsertBatch.
func TestWideProbeIsMiss(t *testing.T) {
	const top = uint64(1)<<KeyBits - 1
	tr := MustNew(Config{PayloadWidth: 1})
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
