package arena

import (
	"bytes"
	"math/rand"
	"testing"
)

// Spilled Slots must restore byte-identical: every block ordinal maps to
// the same slot values, the free list survives, and allocation continues
// exactly where it left off — compact pointers held by other structures
// (tree nodes, root directories) stay valid across a freeze/thaw cycle.
func TestSlotsSpillRoundTrip(t *testing.T) {
	for _, blockLen := range []int{4, 64, 1 << 16} {
		s := MakeSlots(blockLen)
		rng := rand.New(rand.NewSource(int64(blockLen)))
		const blocks = 300
		want := make([][]uint32, blocks)
		for i := 0; i < blocks; i++ {
			ord := s.Alloc()
			blk := s.Block(ord)
			for j := range blk {
				blk[j] = rng.Uint32()
			}
			want[ord] = append([]uint32{}, blk...)
		}
		// Punch holes so the free list round-trips too.
		for _, ord := range []uint32{3, 17, 123} {
			s.Free(ord)
			want[ord] = make([]uint32, blockLen)
		}

		var buf bytes.Buffer
		size := s.SnapshotLen()
		w := Writer{W: &buf}
		if s.WriteChunks(&w); w.Err != nil {
			t.Fatalf("blockLen %d: WriteChunks: %v", blockLen, w.Err)
		}
		s.Detach()
		if s.Bytes() != 0 {
			t.Fatalf("blockLen %d: detached Bytes = %d, want 0", blockLen, s.Bytes())
		}
		if size != uint64(buf.Len()) {
			t.Fatalf("blockLen %d: SnapshotLen = %d, wrote %d bytes", blockLen, size, buf.Len())
		}
		if err := s.ReadChunks(&Reader{R: &buf}, size); err != nil {
			t.Fatalf("blockLen %d: ReadChunks: %v", blockLen, err)
		}

		if s.Live() != blocks-3 {
			t.Fatalf("blockLen %d: Live = %d after thaw, want %d", blockLen, s.Live(), blocks-3)
		}
		for ord := uint32(0); ord < blocks; ord++ {
			blk := s.Block(ord)
			for j, v := range blk {
				if v != want[ord][j] {
					t.Fatalf("blockLen %d: block %d slot %d = %d, want %d",
						blockLen, ord, j, v, want[ord][j])
				}
			}
		}
		// The free list must recycle the same ordinals, newest first.
		if got := s.Alloc(); got != 123 {
			t.Fatalf("blockLen %d: post-thaw Alloc = %d, want recycled 123", blockLen, got)
		}
		// Growth continues past the restored blocks without clobbering them.
		fresh := s.Alloc()
		if fresh != 17 { // next recycled ordinal
			t.Fatalf("blockLen %d: post-thaw Alloc = %d, want recycled 17", blockLen, fresh)
		}
		s.Alloc() // recycles 3
		grown := s.Alloc()
		if grown != blocks {
			t.Fatalf("blockLen %d: grown ordinal = %d, want %d", blockLen, grown, blocks)
		}
		if blk := s.Block(5); blk[0] != want[5][0] {
			t.Fatalf("blockLen %d: growth clobbered restored block", blockLen)
		}
	}
}
