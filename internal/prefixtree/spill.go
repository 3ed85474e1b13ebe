package prefixtree

import (
	"io"

	"qppt/internal/arena"
	"qppt/internal/freeze"
)

// Freeze/Thaw: the tree's spill hooks. The stream format, the restore and
// its failure rules live in package freeze; the prefix tree contributes its magic word and two interior sections —
// the node slot chunks, verbatim, and the leaf free list.

// freezeMagic guards against thawing a stream produced by a different
// structure (or a different format revision).
const freezeMagic = 0x5150_5054_5054_0002 // "QPPT" + prefix-tree format 2

func (t *Tree) codec() freeze.Codec {
	return freeze.Codec{
		State: &t.State, Magic: freezeMagic, Width: t.cfg.PayloadWidth,
		Leaves: &t.leaves, Slab: t.slab,
		Sections: []freeze.Section{{
			Unit:  1,
			Size:  t.nodes.SnapshotLen,
			Write: t.nodes.WriteChunks,
			Read:  t.nodes.ReadChunks,
		}, {
			Unit:  4,
			Size:  func() uint64 { return 4 * uint64(len(t.freeLeaves)) },
			Write: func(w *arena.Writer) { w.U32s(t.freeLeaves) },
			Read: func(r *arena.Reader, size uint64) error {
				t.freeLeaves = r.U32sN(size / 4)
				return r.Err
			},
		}},
		Release: t.Release,
	}
}

// WriteSnapshot writes the tree's storage to w, leaving it attached.
func (t *Tree) WriteSnapshot(w io.Writer) error { return t.codec().WriteSnapshot(w) }

// Release detaches the tree's chunk storage, parking the chunks in the
// configured recycler: after a WriteSnapshot that is safely persisted (the
// spill), or when the last consumer of an intermediate index is done (the
// tree is unusable afterwards). A frozen tree has nothing resident, so a
// second Release does nothing.
func (t *Tree) Release() {
	t.nodes.Detach()
	t.freeLeaves = nil
	freeze.Release(&t.State, &t.leaves, t.slab)
}

// Freeze is WriteSnapshot + Release in one step.
func (t *Tree) Freeze(w io.Writer) error { return t.codec().Freeze(w) }

// Thaw restores the storage WriteSnapshot wrote.
func (t *Tree) Thaw(r io.Reader) error { return t.codec().Thaw(r) }
