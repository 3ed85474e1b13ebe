package kisstree

import (
	"io"
	"math/bits"

	"qppt/internal/arena"
	"qppt/internal/freeze"
)

// Freeze/Thaw: the KISS-Tree's spill hooks. The stream format, the restore
// and its failure rules live in package freeze; the KISS-Tree contributes its magic word and three interior
// sections — the touched root pages and the second-level node chunks, both
// verbatim, and the compressed nodes. Scalar state — key/row counters,
// min/max bounds, the written root span, RCU-copy and root-page metrics —
// stays in the Tree struct across a freeze.

// kissFreezeMagic distinguishes KISS-Tree freeze streams from prefix-tree
// ones (a sharded index freezes heterogeneous shards into one file).
const kissFreezeMagic = 0x5150_5054_4B53_0002 // "QPPT" + KISS format 2

// rootPageBytes is one serialized root page: its directory index and its
// buckets.
const rootPageBytes = 8 + 4<<rootChunkBits

func (t *Tree) codec() freeze.Codec {
	return freeze.Codec{
		State: &t.State, Magic: kissFreezeMagic, Width: t.cfg.PayloadWidth,
		Leaves: &t.leaves, Slab: t.slab,
		Sections: []freeze.Section{
			{Unit: 1, Size: t.rootSnapshotBytes, Write: t.writeRoot, Read: t.readRoot},
			{Unit: 1, Size: t.nodes.SnapshotLen, Write: t.nodes.WriteChunks, Read: t.nodes.ReadChunks},
			{Unit: 1, Size: t.cnodeSnapshotBytes, Write: t.writeCnodes, Read: t.readCnodes},
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

func (t *Tree) cnodeSnapshotBytes() uint64 {
	n := uint64(8)
	for i := range t.cnodes {
		n += 16 + 4*uint64(len(t.cnodes[i].entries))
	}
	return n
}

// writeCnodes writes the compressed-node section: the node count, then
// per node its bitmap, entry count and entries.
func (t *Tree) writeCnodes(w *arena.Writer) {
	w.U64(uint64(len(t.cnodes)))
	for i := range t.cnodes {
		w.U64(t.cnodes[i].bitmap)
		w.U64(uint64(len(t.cnodes[i].entries)))
		w.U32s(t.cnodes[i].entries)
	}
}

// readCnodes restores the compressed-node section; a node has one entry
// per bit of its bitmap.
func (t *Tree) readCnodes(r *arena.Reader, size uint64) error {
	nCN := r.U64()
	if r.Err != nil {
		return r.Err
	}
	if size < 8 || nCN > (size-8)/16 {
		return arena.Corruptf("compressed-node section of %d bytes claims %d nodes", size, nCN)
	}
	left := size - 8
	// Grown as the nodes arrive: size itself is only a claim on a stream.
	t.cnodes = make([]cnode, 0, min(nCN, 1<<10))
	for i := uint64(0); i < nCN; i++ {
		bitmap, nEnt := r.U64(), r.U64()
		if r.Err != nil {
			return r.Err
		}
		if nEnt != uint64(bits.OnesCount64(bitmap)) || left < 16+4*nEnt {
			return arena.Corruptf("compressed node %d: %d entries for bitmap %#x in %d bytes", i, nEnt, bitmap, left)
		}
		left -= 16 + 4*nEnt
		entries := make([]uint32, nEnt)
		r.U32s(entries)
		t.cnodes = append(t.cnodes, cnode{bitmap: bitmap, entries: entries})
	}
	if left != 0 && r.Err == nil {
		return arena.Corruptf("compressed-node section: %d bytes are not nodes", left)
	}
	return r.Err
}

// Release detaches the tree's chunk storage — root directory, node arena,
// compressed nodes, then leaves and slab — parking the chunks in the
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
	t.cnodes = nil
	freeze.Release(&t.State, &t.leaves, t.slab)
}

// WriteSnapshot writes the tree's storage to w, leaving it attached.
func (t *Tree) WriteSnapshot(w io.Writer) error { return t.codec().WriteSnapshot(w) }

// Freeze is WriteSnapshot + Release in one step.
func (t *Tree) Freeze(w io.Writer) error { return t.codec().Freeze(w) }

// Thaw restores the storage WriteSnapshot wrote.
func (t *Tree) Thaw(r io.Reader) error { return t.codec().Thaw(r) }
