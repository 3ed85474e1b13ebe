package kisstree

import (
	"io"

	"qppt/internal/arena"
	"qppt/internal/freeze"
)

// Freeze/Thaw: the KISS-Tree's spill hooks. The stream format, the restore
// and its failure rules live in package freeze; the KISS-Tree contributes
// its magic word and two interior sections, both verbatim: the touched root
// pages and the second-level node chunks. Scalar state — key/row counters,
// min/max bounds and the written root span — stays in the Tree struct
// across a freeze.

// kissFreezeMagic distinguishes KISS-Tree freeze streams from prefix-tree
// ones.
const kissFreezeMagic = 0x5150_5054_4B53_0004 // "QPPT" + KISS format 4

// rootPageBytes is one serialized root page: its directory index and its
// buckets.
const rootPageBytes = 8 + 4<<rootChunkBits

func (t *Tree) codec() freeze.Codec {
	return freeze.Codec{
		State: &t.State, Magic: kissFreezeMagic, Width: t.cfg.PayloadWidth,
		Leaves: &t.leaves, Slab: t.slab,
		Sections: []freeze.Section{
			{Size: t.rootSnapshotBytes, Write: t.writeRoot, Read: t.readRoot},
			{Size: t.nodes.SnapshotLen, Write: t.nodes.WriteChunks, Read: t.nodes.ReadChunks},
		},
		Release: t.Release,
	}
}

// touchedRoot counts the root pages faulted in by writes.
func (t *Tree) touchedRoot() (n uint64) {
	for _, c := range t.root {
		if c != nil {
			n++
		}
	}
	return n
}

func (t *Tree) rootSnapshotBytes() uint64 { return 8 + t.touchedRoot()*rootPageBytes }

// writeRoot writes the root section: the touched-page count, then each
// touched page behind its directory index.
func (t *Tree) writeRoot(w *arena.Writer) {
	w.U64(t.touchedRoot())
	for ci, c := range t.root {
		if c != nil {
			w.U64(uint64(ci))
			w.U32s(c)
		}
	}
}

// readRoot restores the root section. Pages come in ascending directory
// order and only inside the span rootSet ever wrote — the span
// Release zeroes, so a page outside it would reach the pool dirty.
func (t *Tree) readRoot(r *arena.Reader, size uint64) error {
	touched := r.U64()
	if r.Err != nil {
		return r.Err
	}
	if touched > rootChunks || size != 8+touched*rootPageBytes {
		return arena.Corruptf("root section of %d bytes claims %d pages", size, touched)
	}
	t.root = t.newRootDir()
	next, end := uint64(t.rootLo>>rootChunkBits), uint64(t.rootHi>>rootChunkBits)
	if t.rootLo > t.rootHi {
		next, end = 1, 0 // nothing was ever written
	}
	for i := uint64(0); i < touched; i++ {
		ci := r.U64()
		if r.Err != nil {
			return r.Err
		}
		if ci < next || ci > end {
			return arena.Corruptf("root page %d out of order or outside the written span", ci)
		}
		next = ci + 1
		t.root[ci] = t.newRootChunk()
		r.U32s(t.root[ci])
	}
	return r.Err
}

// Release detaches the tree's chunk storage — root directory, node arena,
// then leaves and slab — parking the chunks in the
// configured recycler: after a WriteSnapshot that is safely persisted (the
// spill), or when the last consumer of an intermediate index is done (the
// tree is unusable afterwards). A frozen tree has nothing resident, so a
// second Release does nothing. It allocates nothing: a thaw draws a new
// directory when (and only if) the tree comes back.
func (t *Tree) Release() {
	if rec := t.cfg.Recycler; rec != nil && t.root != nil {
		// Root pages are written sparsely, so the tree zeroes the bucket
		// span it wrote and hands each page over empty (arena's zero
		// invariant); the directory goes back at its touched length.
		touched := 0
		if t.rootLo <= t.rootHi {
			loC, hiC := t.rootLo>>rootChunkBits, t.rootHi>>rootChunkBits
			for ci := loC; ci <= hiC; ci++ {
				c := t.root[ci]
				if c == nil {
					continue // never written
				}
				lo, hi := uint32(0), uint32(rootChunkMask)
				if ci == loC {
					lo = t.rootLo & rootChunkMask
				}
				if ci == hiC {
					hi = t.rootHi & rootChunkMask
				}
				clear(c[lo : hi+1])
				arena.PutChunk(rec, c[:0])
			}
			touched = int(hiC) + 1
		}
		arena.PutChunk(rec, t.root[:touched])
	}
	t.root = nil
	t.nodes.Detach()
	freeze.Release(&t.State, &t.leaves, t.slab)
}

// WriteSnapshot writes the tree's storage to w, leaving it attached.
func (t *Tree) WriteSnapshot(w io.Writer) error { return t.codec().WriteSnapshot(w) }

// Thaw restores the storage WriteSnapshot wrote.
func (t *Tree) Thaw(r io.Reader) error { return t.codec().Thaw(r) }
