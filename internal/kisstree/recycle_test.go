package kisstree

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"qppt/internal/arena"
	"qppt/internal/arena/arenatest"
)

// A recycled tree clears only what it wrote — leaf and node chunks at
// their used length, the slab's current block up to its offset, root pages
// over the bucket span rootSet touched — and every chunk must still come
// back all-zero, also through a freeze/thaw round trip, in both node
// layouts.
func TestKissRecycleKeepsChunksZero(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	for _, compress := range []bool{false, true} {
		rec := arena.NewRecycler()
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 6; round++ {
			tr := MustNew(Config{PayloadWidth: 2, Compress: compress, Recycler: rec})
			var keys []uint64
			for i := 0; i < 3000; i++ {
				// Two clusters in different root pages plus key 0.
				k := uint64(rng.Intn(1 << 12))
				if i%3 == 0 {
					k = 1<<23 + uint64(rng.Intn(1<<12))
				}
				tr.Insert(k, []uint64{k, uint64(i)})
				keys = append(keys, k)
			}
			if round%2 == 1 {
				var buf bytes.Buffer
				if err := tr.codec().Freeze(&buf); err != nil {
					t.Fatal(err)
				}
				if err := tr.Thaw(&buf); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys[:100] {
				if tr.Lookup(k) == nil {
					t.Fatalf("compress=%v round %d: key %#x lost", compress, round, k)
				}
			}
			tr.Release()
		}
		if st := rec.Stats(); st.Reused == 0 {
			t.Fatalf("compress=%v: rounds never reused a chunk: %+v", compress, st)
		}
	}
}

// Dropping an index must not allocate: Release used to make a fresh 24 KiB
// root directory for a tree that was being thrown away. What is left is
// the pool's own bookkeeping (a boxed slice header per parked chunk).
func TestKissDropAllocatesNothing(t *testing.T) {
	rec := arena.NewRecycler()
	trees := make([]*Tree, 16)
	for i := range trees {
		trees[i] = MustNew(Config{PayloadWidth: 1, Recycler: rec})
		trees[i].Insert(19940101, []uint64{7})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tr := range trees {
		tr.Release()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(trees)); per > 1024 {
		t.Errorf("dropping a tree allocates %d B; it should allocate (next to) nothing", per)
	}
	if st := rec.Stats(); st.Recycled < 5*len(trees) {
		t.Errorf("dropped trees parked %d chunks, want root dir + root page + nodes + leaves + slab block each", st.Recycled)
	}
}
