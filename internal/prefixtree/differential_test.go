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

			// Mixed single-key inserts, batched inserts and delete waves.
			// The deletes hit slab-backed lists (every list in the arena
			// tree draws from the tree's slab), so leaf-header and
			// path-node recycling runs against exactly the storage layout
			// production intermediates use — insert-only coverage would
			// let node-recycling bugs hide.
			for step := 0; step < 40; step++ {
				switch rng.Intn(3) {
				case 0:
					for i := 0; i < 50; i++ {
						k := randKey()
						row := randRow(k)
						tr.Insert(k, row)
						model.insert(k, row)
					}
				case 1:
					n := 1 + rng.Intn(600) // cross the DefaultBatchSize boundary
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
				default:
					// Delete a mix of present keys (drawn from the model)
					// and random, mostly-absent ones; all three structures
					// must agree on what was present.
					victims := model.sortedKeys()
					rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
					if len(victims) > 40 {
						victims = victims[:40]
					}
					for i := 0; i < 20; i++ {
						victims = append(victims, randKey())
					}
					for _, k := range victims {
						_, present := model[k]
						if got := tr.Delete(k); got != present {
							t.Fatalf("k'=%d bits=%d: Delete(%#x) = %v, model %v",
								prefixLen, keyBits, k, got, present)
						}
						delete(model, k)
					}
				}
			}

			// Recycling: a final delete wave frees leaf headers (and often
			// path nodes); fresh inserts must then reuse them instead of
			// growing the arenas. (The interleaved waves above may already
			// have been refilled by later insert steps, so recycle counts
			// are pinned against this explicit wave.)
			final := model.sortedKeys()
			if len(final) > 60 {
				final = final[:60]
			}
			for _, k := range final {
				tr.Delete(k)
				delete(model, k)
			}
			if len(tr.freeLeaves) == 0 {
				t.Fatalf("k'=%d bits=%d: delete wave left no recycled leaf headers", prefixLen, keyBits)
			}
			toInsert := len(tr.freeLeaves)
			if keyBits < 20 { // narrow key spaces may not have enough absent keys
				if avail := int(keyMask) + 1 - len(model); toInsert > avail {
					toInsert = avail
				}
			}
			freedLeaves := len(tr.freeLeaves)
			leavesAllocated := tr.leaves.Len()
			nodesAllocated := tr.nodes.Allocated() // total ever carved, excluding recycled
			for inserted := 0; inserted < toInsert; {
				k := randKey()
				if _, ok := model[k]; ok {
					continue
				}
				row := randRow(k)
				tr.Insert(k, row)
				model.insert(k, row)
				inserted++
			}
			if got := len(tr.freeLeaves); got != freedLeaves-toInsert {
				t.Fatalf("k'=%d bits=%d: %d inserts left %d of %d free leaf headers (want %d): recycling broken",
					prefixLen, keyBits, toInsert, got, freedLeaves, freedLeaves-toInsert)
			}
			if tr.leaves.Len() != leavesAllocated {
				t.Fatalf("k'=%d bits=%d: leaf arena grew from %d to %d despite free headers",
					prefixLen, keyBits, leavesAllocated, tr.leaves.Len())
			}
			// New collision paths may need inner nodes, but the arena must
			// only grow once the node free list is drained.
			if tr.nodes.Allocated() > nodesAllocated && tr.nodes.FreeBlocks() > 0 {
				t.Fatalf("k'=%d bits=%d: node arena grew by %d blocks with %d free blocks unused",
					prefixLen, keyBits, tr.nodes.Allocated()-nodesAllocated, tr.nodes.FreeBlocks())
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
