package arena

import "testing"

func TestRefTagging(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil is not nil")
	}
	for _, idx := range []uint32{0, 1, 1000, 1<<31 - 2} {
		nr := NodeRef(idx)
		lr := LeafRef(idx)
		if nr.IsNil() || lr.IsNil() {
			t.Fatalf("idx %d: valid ref reads as nil", idx)
		}
		if nr.IsLeaf() {
			t.Fatalf("idx %d: node ref tagged as leaf", idx)
		}
		if !lr.IsLeaf() {
			t.Fatalf("idx %d: leaf ref not tagged", idx)
		}
		if nr.Index() != idx || lr.Index() != idx {
			t.Fatalf("idx %d: round-trip gave %d / %d", idx, nr.Index(), lr.Index())
		}
	}
}

func TestArenaStableAddresses(t *testing.T) {
	a := Make[uint64](4) // 16 elements per chunk
	var ptrs []*uint64
	for i := 0; i < 1000; i++ {
		idx := a.Alloc(uint64(i))
		if idx != uint32(i) {
			t.Fatalf("Alloc %d returned index %d", i, idx)
		}
		ptrs = append(ptrs, a.At(idx))
	}
	if a.Len() != 1000 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i, p := range ptrs {
		// The addresses taken while the arena grew must still point at
		// the right elements.
		if *p != uint64(i) || a.At(uint32(i)) != p {
			t.Fatalf("element %d moved", i)
		}
	}
	n := 0
	a.Scan(func(idx uint32, v *uint64) bool {
		if *v != uint64(idx) {
			t.Fatalf("Scan idx %d = %d", idx, *v)
		}
		n++
		return true
	})
	if n != 1000 {
		t.Fatalf("Scan visited %d", n)
	}
}

func TestSlotsAlloc(t *testing.T) {
	for _, blockLen := range []int{2, 16, 64, 1 << 16} {
		s := MakeSlots(blockLen)
		a := s.Alloc()
		b := s.Alloc()
		if a == b {
			t.Fatalf("blockLen %d: duplicate ordinals", blockLen)
		}
		blkA := s.Block(a)
		if len(blkA) != blockLen {
			t.Fatalf("blockLen %d: block has %d slots", blockLen, len(blkA))
		}
		blkA[0] = 7
		blkA[blockLen-1] = 9
		// Growing must not move existing blocks.
		for i := 0; i < 100; i++ {
			s.Alloc()
		}
		if got := s.Block(a); got[0] != 7 || got[blockLen-1] != 9 {
			t.Fatalf("blockLen %d: block moved or lost data", blockLen)
		}
		for i, v := range s.Block(s.Alloc()) {
			if v != 0 {
				t.Fatalf("blockLen %d: new block slot %d = %d, not zeroed", blockLen, i, v)
			}
		}
		chunkWords := 1 << (s.perChunkBits + s.blockBits)
		wantChunks := (s.n + (1 << s.perChunkBits) - 1) >> s.perChunkBits
		if s.Bytes() != wantChunks*chunkWords*4 {
			t.Fatalf("blockLen %d: Bytes = %d, want %d reserved chunk bytes",
				blockLen, s.Bytes(), wantChunks*chunkWords*4)
		}
	}
}

// Slots.Bytes must report the reserved chunk capacity, not just the
// appended blocks: Alloc commits a whole chunk (make with full cap), so a
// single allocated block already holds one chunk's worth of memory. The
// spill eviction policy keys off this number; under-reporting would let a
// "within budget" plan blow past the budget right after a chunk grows.
func TestSlotsBytesCountsReservedCapacity(t *testing.T) {
	s := MakeSlots(16)
	if s.Bytes() != 0 {
		t.Fatalf("empty Slots: Bytes = %d, want 0", s.Bytes())
	}
	s.Alloc()
	chunkBytes := (1 << (s.perChunkBits + s.blockBits)) * 4
	if s.Bytes() != chunkBytes {
		t.Fatalf("one block: Bytes = %d, want full chunk %d", s.Bytes(), chunkBytes)
	}
	// Filling the rest of the chunk must not change the footprint...
	for i := 1; i < 1<<s.perChunkBits; i++ {
		s.Alloc()
	}
	if s.Bytes() != chunkBytes {
		t.Fatalf("full chunk: Bytes = %d, want %d", s.Bytes(), chunkBytes)
	}
	// ...and the next block commits the next chunk wholesale.
	s.Alloc()
	if s.Bytes() != 2*chunkBytes {
		t.Fatalf("chunk+1 blocks: Bytes = %d, want %d", s.Bytes(), 2*chunkBytes)
	}
}

// Arena.Bytes likewise reports reserved chunk capacity.
func TestArenaBytesCountsReservedCapacity(t *testing.T) {
	a := Make[uint64](4) // 16 elements per chunk
	if a.Bytes() != 0 {
		t.Fatalf("empty arena: Bytes = %d, want 0", a.Bytes())
	}
	a.Alloc(1)
	if a.Bytes() != 16*8 {
		t.Fatalf("one element: Bytes = %d, want one full chunk (%d)", a.Bytes(), 16*8)
	}
	for i := 0; i < 16; i++ {
		a.Alloc(uint64(i))
	}
	if a.Bytes() != 2*16*8 {
		t.Fatalf("17 elements: Bytes = %d, want two chunks (%d)", a.Bytes(), 2*16*8)
	}
	a.Reset()
	if a.Bytes() != 0 || a.Len() != 0 {
		t.Fatalf("after Reset: Bytes = %d, Len = %d", a.Bytes(), a.Len())
	}
}
