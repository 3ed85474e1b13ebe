package arena

import (
	"bytes"
	"math/rand"
	"testing"
)

// Spilled Slots must restore byte-identical: every block ordinal maps to
// the same slot values, and allocation continues exactly where it left off — compact pointers held by other structures
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

		if s.n != blocks {
			t.Fatalf("blockLen %d: %d blocks after thaw, want %d", blockLen, s.n, blocks)
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
		// Growth continues past the restored blocks without clobbering them.
		grown := s.Alloc()
		if grown != blocks {
			t.Fatalf("blockLen %d: grown ordinal = %d, want %d", blockLen, grown, blocks)
		}
		if blk := s.Block(5); blk[0] != want[5][0] {
			t.Fatalf("blockLen %d: growth clobbered restored block", blockLen)
		}
	}
}
