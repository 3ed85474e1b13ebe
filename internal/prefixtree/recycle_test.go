package prefixtree

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"qppt/internal/arena"
	"qppt/internal/arena/arenatest"
)

// A recycled tree hands its chunks back at their used length, and every
// chunk must still come out of the pool all-zero (arena's zero invariant)
// — also through a freeze/thaw round trip.
func TestRecycleKeepsChunksZero(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	rec := arena.NewRecycler()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 6; round++ {
		tr := MustNew(Config{KeyBits: 40, PayloadWidth: 2, Recycler: rec})
		var keys []uint64
		for i := 0; i < 6000; i++ {
			k := uint64(rng.Int63n(1 << 40))
			tr.Insert(k, []uint64{k, uint64(i)})
			tr.Insert(k, []uint64{k, uint64(i) + 1}) // duplicate segments too
			keys = append(keys, k)
		}
		if round%2 == 1 {
			var buf bytes.Buffer
			if err := tr.Freeze(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tr.Thaw(&buf); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Lookup(keys[len(keys)-1]) == nil {
			t.Fatalf("round %d: key lost", round)
		}
		tr.Release()
	}
	if st := rec.Stats(); st.Reused == 0 {
		t.Fatalf("rounds never reused a chunk: %+v", st)
	}
}

// Dropping a tree allocates nothing beyond the pool's bookkeeping.
func TestDropAllocatesNothing(t *testing.T) {
	rec := arena.NewRecycler()
	trees := make([]*Tree, 16)
	for i := range trees {
		trees[i] = MustNew(Config{PayloadWidth: 1, Recycler: rec})
		trees[i].Insert(uint64(i), []uint64{7})
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
}
