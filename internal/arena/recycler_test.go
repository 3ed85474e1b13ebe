package arena

import (
	"sync"
	"testing"
)

// A chunk parked in the pool must come back only for its exact element
// type and capacity, cleared, and the counters must record the traffic.
func TestRecyclerRoundTripAndClasses(t *testing.T) {
	r := NewRecycler()
	c := make([]uint32, 0, 1024)
	c = append(c, 7, 8, 9)
	PutChunk(r, c)

	if _, ok := GetChunk[uint32](r, 512); ok {
		t.Fatal("wrong capacity served")
	}
	if _, ok := GetChunk[uint64](r, 1024); ok {
		t.Fatal("wrong element type served")
	}
	got, ok := GetChunk[uint32](r, 1024)
	if !ok {
		t.Fatal("exact class not served")
	}
	if len(got) != 0 || cap(got) != 1024 {
		t.Fatalf("recycled chunk has len %d cap %d", len(got), cap(got))
	}
	for _, v := range got[:cap(got)] {
		if v != 0 {
			t.Fatal("recycled chunk not cleared")
		}
	}
	if _, ok := GetChunk[uint32](r, 1024); ok {
		t.Fatal("chunk served twice")
	}
	st := r.Stats()
	if st.Recycled != 1 || st.Reused != 1 || st.SavedBytes != 4096 {
		t.Fatalf("stats = %+v", st)
	}
}

// Typed chunks holding pointers must be cleared on put so the pool never
// retains payload memory.
func TestRecyclerClearsPointerChunks(t *testing.T) {
	type leafish struct {
		p *int
	}
	r := NewRecycler()
	x := 42
	c := make([]leafish, 0, 8)
	c = append(c, leafish{p: &x})
	PutChunk(r, c)
	got, ok := GetChunk[leafish](r, 8)
	if !ok {
		t.Fatal("typed chunk not served")
	}
	for _, v := range got[:cap(got)] {
		if v.p != nil {
			t.Fatal("pointer survived recycling")
		}
	}
}

// A nil recycler must be a universal no-op.
func TestRecyclerNilSafe(t *testing.T) {
	var r *Recycler
	PutChunk(r, make([]uint32, 4))
	if _, ok := GetChunk[uint32](r, 4); ok {
		t.Fatal("nil recycler served a chunk")
	}
	if st := r.Stats(); st != (RecyclerStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// Arena and Slots must draw growth from the pool and return chunks on
// Reset/Detach — the drop→reuse cycle the executor drives per operator.
func TestArenaAndSlotsRecycle(t *testing.T) {
	rec := NewRecycler()

	a := Make[uint64](4) // 16-element chunks
	a.SetRecycler(rec)
	for i := 0; i < 40; i++ { // 3 chunks
		a.Alloc(uint64(i))
	}
	a.Reset()
	if st := rec.Stats(); st.Recycled != 3 {
		t.Fatalf("Reset parked %d chunks, want 3", st.Recycled)
	}
	for i := 0; i < 40; i++ {
		a.Alloc(uint64(100 + i))
	}
	if st := rec.Stats(); st.Reused != 3 {
		t.Fatalf("regrowth reused %d chunks, want 3", st.Reused)
	}
	if *a.At(0) != 100 || *a.At(39) != 139 {
		t.Fatal("recycled arena content wrong")
	}

	s := MakeSlots(16)
	s.SetRecycler(rec)
	perChunk := s.chunkWords() / 16
	for i := 0; i < perChunk+1; i++ { // force 2 chunks
		s.Alloc()
	}
	before := rec.Stats().Recycled
	s.Detach()
	if got := rec.Stats().Recycled - before; got != 2 {
		t.Fatalf("Detach parked %d slot chunks, want 2", got)
	}
}

// The pool is shared by concurrent workers; hammer it under -race.
func TestRecyclerConcurrent(t *testing.T) {
	rec := NewRecycler()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if c, ok := GetChunk[uint32](rec, 256); ok {
					PutChunk(rec, c)
					continue
				}
				PutChunk(rec, make([]uint32, 0, 256))
			}
		}(w)
	}
	wg.Wait()
	st := rec.Stats()
	if st.Recycled == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}

// SetCap bounds the pooled bytes: chunks beyond the cap are dropped to
// the GC and counted as trim evictions, and the pool keeps serving what
// it retained.
func TestRecyclerTrimCap(t *testing.T) {
	rec := NewRecycler()
	const chunkWords = 1024 // 8 KiB per uint64 chunk
	rec.SetCap(3 * chunkWords * 8)
	for i := 0; i < 5; i++ {
		PutChunk(rec, make([]uint64, 0, chunkWords))
	}
	st := rec.Stats()
	if st.Recycled != 3 || st.TrimEvicted != 2 {
		t.Fatalf("parked %d, trim-evicted %d; want 3 and 2: %+v", st.Recycled, st.TrimEvicted, st)
	}
	if st.PooledBytes != 3*chunkWords*8 {
		t.Fatalf("pooled bytes %d, want %d", st.PooledBytes, 3*chunkWords*8)
	}
	if st.TrimEvictedBytes != 2*chunkWords*8 {
		t.Fatalf("trim-evicted bytes %d, want %d", st.TrimEvictedBytes, 2*chunkWords*8)
	}
	// Draining the pool frees cap headroom: the next Put is pooled again.
	for i := 0; i < 3; i++ {
		if _, ok := GetChunk[uint64](rec, chunkWords); !ok {
			t.Fatalf("pooled chunk %d missing", i)
		}
	}
	PutChunk(rec, make([]uint64, 0, chunkWords))
	st = rec.Stats()
	if st.Recycled != 4 || st.PooledBytes != chunkWords*8 {
		t.Fatalf("pool did not reopen after draining: %+v", st)
	}
	// An uncapped pool never trims.
	rec.SetCap(0)
	for i := 0; i < 8; i++ {
		PutChunk(rec, make([]uint64, 0, chunkWords))
	}
	if got := rec.Stats().TrimEvicted; got != 2 {
		t.Fatalf("uncapped pool trimmed: %d evictions", got)
	}
}

// PutChunk clears exactly the written prefix: what lies beyond len is the
// owner's to keep zero (the zero invariant), and the handout check is what
// catches an owner that did not.
func TestRecyclePrefixClearAndHandoutCheck(t *testing.T) {
	var dirty []int
	restore := CheckHandouts(func(elem string, at int) {
		if at >= 0 {
			dirty = append(dirty, at)
		}
	})
	defer restore()

	r := NewRecycler()
	c := make([]uint64, 0, 64)
	c = append(c, 1, 2, 3)
	PutChunk(r, c)
	if got, _ := GetChunk[uint64](r, 64); firstNonZeroByte(got[:64]) >= 0 || len(dirty) != 0 {
		t.Fatalf("written prefix survived the put (check saw %v)", dirty)
	}

	// An owner that wrote past the length it hands over breaks the
	// invariant; PutChunk does not paper over it, the check reports it.
	c = make([]uint64, 0, 64)
	c = append(c, 1, 2, 3)
	PutChunk(r, c[:1])
	if _, ok := GetChunk[uint64](r, 64); !ok || len(dirty) != 1 || dirty[0] != 8 {
		t.Fatalf("handout check saw %v, want one dirty chunk at byte 8", dirty)
	}
}
