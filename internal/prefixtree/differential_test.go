package prefixtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Randomized differential test for the arena-backed compact-pointer
// layout: identical Insert/InsertBatch/Lookup/Range/Iterate sequences are
// driven against the arena tree and a map[uint64][][]uint64 reference
// model. The two must agree on every observable result across tree
// geometries.

type refModel map[uint64][][]uint64

func (m refModel) insert(key uint64, row []uint64) {
	r := make([]uint64, len(row))
	copy(r, row)
	m[key] = append(m[key], r)
}

func (m refModel) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func TestDifferentialArenaVsModel(t *testing.T) {
	const payloadWidth = 2
	for _, prefixLen := range []uint{1, 4, 8, 16} {
		for _, keyBits := range []uint{8, 32, 64} {
			cfg := Config{PrefixLen: prefixLen, KeyBits: keyBits, PayloadWidth: payloadWidth}
			tr := MustNew(cfg)
			model := refModel{}
			rng := rand.New(rand.NewSource(int64(prefixLen)<<8 | int64(keyBits)))
			keyMask := ^uint64(0)
			if keyBits < 64 {
				keyMask = uint64(1)<<keyBits - 1
			}
			randKey := func() uint64 {
				// Mix dense low keys with full-width random ones so both
				// shallow content nodes and deep collision paths arise.
				if rng.Intn(2) == 0 {
					return uint64(rng.Intn(300)) & keyMask
				}
				return rng.Uint64() & keyMask
			}
			randRow := func(k uint64) []uint64 {
				return []uint64{k, rng.Uint64()}
			}

			// Mixed single-key and batched inserts, all drawing list storage
			// from the tree's slab like production intermediates.
			for step := 0; step < 40; step++ {
				switch rng.Intn(2) {
				case 0:
					for i := 0; i < 50; i++ {
						k := randKey()
						row := randRow(k)
						tr.Insert(k, row)
						model.insert(k, row)
					}
				case 1:
					n := 1 + rng.Intn(600) // cross the testBatchSize boundary
					keys := make([]uint64, n)
					rows := make([][]uint64, n)
					for i := range keys {
						keys[i] = randKey()
						rows[i] = randRow(keys[i])
					}
					tr.InsertBatch(keys, rows)
					for i, k := range keys {
						model.insert(k, rows[i])
					}
				}
			}

			// Counters.
			wantRows := 0
			for _, rows := range model {
				wantRows += len(rows)
			}
			if tr.Keys() != len(model) || tr.Rows() != wantRows {
				t.Fatalf("k'=%d bits=%d: Keys/Rows = %d/%d, model %d/%d",
					prefixLen, keyBits, tr.Keys(), tr.Rows(), len(model), wantRows)
			}

			// Lookup + LookupBatch: present and absent keys.
			probes := model.sortedKeys()
			for i := 0; i < 200; i++ {
				probes = append(probes, randKey())
			}
			for _, k := range probes {
				lf := tr.Lookup(k)
				want, present := model[k]
				if present != (lf != nil) {
					t.Fatalf("k'=%d bits=%d: Lookup(%#x) presence = %v, model %v",
						prefixLen, keyBits, k, lf != nil, present)
				}
				if present && !reflect.DeepEqual(lf.Vals.Rows(), want) {
					t.Fatalf("k'=%d bits=%d: Lookup(%#x) rows differ from model", prefixLen, keyBits, k)
				}
			}
			tr.LookupBatch(probes, func(i int, lf *Leaf) {
				want, present := model[probes[i]]
				if present != (lf != nil) {
					t.Fatalf("k'=%d bits=%d: LookupBatch(%#x) presence = %v, model %v",
						prefixLen, keyBits, probes[i], lf != nil, present)
				}
				if present && !reflect.DeepEqual(lf.Vals.Rows(), want) {
					t.Fatalf("k'=%d bits=%d: LookupBatch(%#x) rows differ", prefixLen, keyBits, probes[i])
				}
			})

			// Iterate: full ordered walk must equal the model key-for-key,
			// row-for-row.
			var gotKeys []uint64
			tr.Iterate(func(lf *Leaf) bool {
				gotKeys = append(gotKeys, lf.Key)
				if !reflect.DeepEqual(lf.Vals.Rows(), model[lf.Key]) {
					t.Fatalf("k'=%d bits=%d: Iterate rows for %#x differ", prefixLen, keyBits, lf.Key)
				}
				return true
			})
			if !reflect.DeepEqual(gotKeys, model.sortedKeys()) {
				t.Fatalf("k'=%d bits=%d: Iterate order differs from model", prefixLen, keyBits)
			}

			// Range: random windows, including empty and full ones.
			for i := 0; i < 50; i++ {
				lo, hi := randKey(), randKey()
				if lo > hi {
					lo, hi = hi, lo
				}
				var got, want []uint64
				tr.Range(lo, hi, func(lf *Leaf) bool {
					got = append(got, lf.Key)
					return true
				})
				for _, k := range model.sortedKeys() {
					if k >= lo && k <= hi {
						want = append(want, k)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k'=%d bits=%d: Range[%#x,%#x] = %d keys, model %d",
						prefixLen, keyBits, lo, hi, len(got), len(want))
				}
			}
		}
	}
}
