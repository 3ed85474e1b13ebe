package kisstree

import (
	"bufio"
	"fmt"
	"io"

	"qppt/internal/arena"
	"qppt/internal/duplist"
)

// Freeze/Thaw: the KISS-Tree's spill hooks, mirroring package prefixtree.
//
// All interior references are compact pointers (arena ordinals + 1), so
// the index is position-independent: the touched root-directory chunks and
// the second-level node chunks spill verbatim, content leaves are
// serialized key + rows (their duplicate lists embed Go slices), and the
// thaw paths rebuild everything index-for-index. Scalar state — key/row
// counters, min/max bounds, RCU-copy and root-page metrics — stays in the
// Tree struct across a freeze.
//
// Like prefixtree, the freeze format is self-indexing (format 2): section
// byte lengths for the root, node and compressed-node sections plus a
// per-leaf-chunk {min key, max key, byte length} directory. ThawMapped
// adopts root pages and node chunks straight out of an mmap-ed spill file
// (zero-copy; the mapping is private, so in-place writes copy pages);
// ThawRange restores only the leaf chunks a key range touches and is
// additive across calls.

// kissFreezeMagic distinguishes KISS-Tree freeze streams from prefix-tree
// ones (a sharded index freezes heterogeneous shards into one file).
const kissFreezeMagic = 0x5150_5054_4B53_0002 // "QPPT" + KISS format 2

// Frozen reports whether the tree's chunk storage is currently detached
// (spilled). A frozen tree must not be queried or mutated until Thaw.
func (t *Tree) Frozen() bool { return t.frozen }

// Partial reports whether only part of the leaf payloads is resident (see
// ThawRange).
func (t *Tree) Partial() bool { return t.partial }

// rootSnapshotBytes reports the serialized size of the root section.
func (t *Tree) rootSnapshotBytes() uint64 {
	touched := uint64(0)
	for _, c := range t.root {
		if c != nil {
			touched++
		}
	}
	return 8 + touched*(8+4<<rootChunkBits)
}

// cnodeSnapshotBytes reports the serialized size of the compressed-node
// section.
func (t *Tree) cnodeSnapshotBytes() uint64 {
	n := uint64(8)
	for i := range t.cnodes {
		n += 16 + 4*uint64(len(t.cnodes[i].entries))
	}
	return n
}

func leafSnapshotBytes(lf *Leaf, width int) uint64 {
	if width == 0 {
		return 16
	}
	return 16 + 8*uint64(width)*uint64(lf.Vals.Len())
}

// leafDir builds the per-leaf-chunk directory (arena.LeafChunkDir).
func (t *Tree) leafDir() []uint64 {
	return arena.LeafChunkDir(&t.leaves,
		func(lf *Leaf) uint64 { return leafSnapshotBytes(lf, t.cfg.PayloadWidth) },
		func(lf *Leaf) (uint64, bool) { return lf.Key, lf.Vals.Len() > 0 })
}

// WriteSnapshot writes the tree's storage to w in one sequential pass —
// the touched root chunks, node chunks, compressed nodes, the leaf-chunk
// directory and the content leaves. The storage stays attached and the
// tree fully usable; call Release once the snapshot is safely persisted
// to actually detach it, so a failed spill never drops index data.
//
// Like prefixtree, WriteSnapshot and the thaw paths consume exactly their
// own bytes (no internal buffering, no read-ahead) so several structures
// can share one stream; callers provide buffering.
func (t *Tree) WriteSnapshot(w io.Writer) error {
	if t.frozen || t.partial {
		return fmt.Errorf("kisstree: WriteSnapshot on a frozen or partially thawed tree")
	}
	if err := arena.WriteU64(w, kissFreezeMagic); err != nil {
		return err
	}
	// Root page directory: only the chunks faulted in by writes.
	if err := arena.WriteU64(w, t.rootSnapshotBytes()); err != nil {
		return err
	}
	touched := uint64(0)
	for _, c := range t.root {
		if c != nil {
			touched++
		}
	}
	if err := arena.WriteU64(w, touched); err != nil {
		return err
	}
	for ci, c := range t.root {
		if c == nil {
			continue
		}
		if err := arena.WriteU64(w, uint64(ci)); err != nil {
			return err
		}
		if err := arena.WriteU32s(w, c); err != nil {
			return err
		}
	}
	if err := arena.WriteU64(w, uint64(t.nodes.SnapshotLen())); err != nil {
		return err
	}
	if err := t.nodes.WriteChunks(w); err != nil {
		return err
	}
	if err := arena.WriteU64(w, t.cnodeSnapshotBytes()); err != nil {
		return err
	}
	if err := arena.WriteU64(w, uint64(len(t.cnodes))); err != nil {
		return err
	}
	for i := range t.cnodes {
		if err := arena.WriteU64(w, t.cnodes[i].bitmap); err != nil {
			return err
		}
		if err := arena.WriteU64(w, uint64(len(t.cnodes[i].entries))); err != nil {
			return err
		}
		if err := arena.WriteU32s(w, t.cnodes[i].entries); err != nil {
			return err
		}
	}
	if err := arena.WriteU64(w, uint64(t.leaves.Len())); err != nil {
		return err
	}
	dir := t.leafDir()
	if err := arena.WriteU64(w, uint64(len(dir)/3)); err != nil {
		return err
	}
	if err := arena.WriteU64s(w, dir); err != nil {
		return err
	}
	werr := error(nil)
	t.leaves.Scan(func(_ uint32, lf *Leaf) bool {
		werr = writeLeaf(w, lf)
		return werr == nil
	})
	return werr
}

// Release detaches the root directory, node arena, compressed nodes, leaf
// arena and payload slab the last WriteSnapshot captured, parking heap
// chunks in the configured recycler (mmap-adopted chunks are simply
// dropped). The tree keeps its counters and bounds but must not be
// queried or mutated until thawed. Only call after the snapshot is safely
// persisted. Release allocates nothing: a thaw draws a new directory when
// (and only if) the tree comes back.
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
				if c == nil || t.rootMapped {
					continue // never written, or a view of the spill file mapping
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
	t.rootMapped = false
	t.nodes.Detach()
	t.cnodes = nil
	t.leaves.Reset()
	if t.slab != nil {
		t.slab.Release()
	}
	t.slab = nil
	t.partial = false
	t.thawedChunks = nil
	t.frozen = true
}

// Recycle drops a resident tree's chunk storage into the configured
// recycler (see Release); a frozen tree is left untouched. The tree is
// unusable afterwards.
func (t *Tree) Recycle() {
	if !t.frozen {
		t.Release()
	}
}

// Materialize copies any mmap-adopted root pages and node chunks to the
// heap, so the tree survives the unmapping of its spill file.
func (t *Tree) Materialize() {
	if t.rootMapped {
		for ci, c := range t.root {
			if c == nil {
				continue
			}
			h := make([]uint32, len(c))
			copy(h, c)
			t.root[ci] = h
		}
		t.rootMapped = false
	}
	t.nodes.Unmap()
}

// Freeze is WriteSnapshot + Release in one step, for callers whose write
// target cannot fail after the fact (e.g. an in-memory buffer).
func (t *Tree) Freeze(w io.Writer) error {
	if err := t.WriteSnapshot(w); err != nil {
		return err
	}
	t.Release()
	return nil
}

// Thaw restores the storage WriteSnapshot wrote. Root chunks and node
// blocks come back verbatim; leaves are re-allocated index-for-index so
// every compact pointer in the restored nodes stays valid.
func (t *Tree) Thaw(r io.Reader) error { return t.thaw(r, nil) }

// ThawMapped is Thaw over an mmap-ed spill file: root pages and node
// chunks are adopted as zero-copy views of the mapped pages; only the
// compressed nodes and content leaves are rebuilt. The caller owns the
// mapping and must keep it alive until the tree is released, recycled, or
// Materialized. On error the tree stays frozen and holds no reference
// into the mapping, so the caller may unmap it and retry through any
// thaw path.
func (t *Tree) ThawMapped(mr *arena.MapReader) error {
	if err := t.thaw(mr, mr); err != nil {
		// Drop any root pages and node chunks adopted from the mapping
		// before the caller unmaps it (the frozen flag only flips on
		// success, so the tree reads as frozen already).
		t.nodes.Detach()
		t.root = nil
		t.rootMapped = false
		return err
	}
	return nil
}

func (t *Tree) thaw(r io.Reader, mr *arena.MapReader) error {
	if !t.frozen {
		return fmt.Errorf("kisstree: Thaw on a tree that is not frozen")
	}
	magic, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	if magic != kissFreezeMagic {
		return fmt.Errorf("kisstree: bad freeze magic %#x", magic)
	}
	if _, err := arena.ReadU64(r); err != nil { // root section length
		return err
	}
	if err := t.readRootSection(r, mr); err != nil {
		return err
	}
	if _, err := arena.ReadU64(r); err != nil { // node section length
		return err
	}
	if mr != nil {
		err = t.nodes.ReadChunksMapped(mr)
	} else {
		err = t.nodes.ReadChunks(r)
	}
	if err != nil {
		return err
	}
	if err := t.readCnodesAndLeaves(r); err != nil {
		return err
	}
	t.frozen = false
	t.partial = false
	t.thawedChunks = nil
	return nil
}

// readRootSection restores the root page directory from r (positioned on
// the touched-chunk count), adopting zero-copy views of the mapped pages
// when mr is non-nil. Shared by the full thaw and the range thaw, so the
// format is parsed in exactly one place.
func (t *Tree) readRootSection(r io.Reader, mr *arena.MapReader) error {
	touched, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	t.root = t.newRootDir()
	t.rootMapped = false
	for i := uint64(0); i < touched; i++ {
		ci, err := arena.ReadU64(r)
		if err != nil {
			return err
		}
		if ci >= rootChunks {
			return fmt.Errorf("kisstree: root chunk %d out of range", ci)
		}
		if mr != nil {
			if view, ok := mr.U32View(1 << rootChunkBits); ok {
				t.root[ci] = view
				t.rootMapped = true
				continue
			}
		}
		c := t.newRootChunk()
		if err := arena.ReadU32s(r, c); err != nil {
			return err
		}
		t.root[ci] = c
	}
	return nil
}

// readCnodeSection restores the compressed-node section from r
// (positioned on the node count). Shared like readRootSection.
func (t *Tree) readCnodeSection(r io.Reader) error {
	nCN, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	t.cnodes = make([]cnode, nCN)
	for i := range t.cnodes {
		if t.cnodes[i].bitmap, err = arena.ReadU64(r); err != nil {
			return err
		}
		nEnt, err := arena.ReadU64(r)
		if err != nil {
			return err
		}
		t.cnodes[i].entries = make([]uint32, nEnt)
		if err := arena.ReadU32s(r, t.cnodes[i].entries); err != nil {
			return err
		}
	}
	return nil
}

// readCnodesAndLeaves restores the compressed-node section and all content
// leaves from r (positioned right after the node section).
func (t *Tree) readCnodesAndLeaves(r io.Reader) error {
	if _, err := arena.ReadU64(r); err != nil { // cnode section length
		return err
	}
	if err := t.readCnodeSection(r); err != nil {
		return err
	}
	nLeaves, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	nChunks, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	dir := make([]uint64, 3*nChunks)
	if err := arena.ReadU64s(r, dir); err != nil {
		return err
	}
	t.slab = duplist.NewSlabIn(t.cfg.Recycler)
	t.leaves.Reset()
	row := make([]uint64, t.cfg.PayloadWidth)
	for i := uint64(0); i < nLeaves; i++ {
		li := t.leaves.Alloc(Leaf{})
		if err := readLeaf(r, t.leaves.At(li), t.cfg.PayloadWidth, t.slab, row); err != nil {
			return err
		}
	}
	return nil
}

// ThawRange restores the tree far enough to serve queries inside [lo, hi]:
// root pages, node chunks and compressed nodes come back in full, but of
// the content leaves only the chunks whose key range intersects [lo, hi]
// are read — the rest are skipped with a seek and stay zero (empty). It
// returns the bytes actually read and whether the tree is now fully
// restored. Additive across calls, like prefixtree.ThawRange.
func (t *Tree) ThawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	fresh := t.frozen
	n, full, err := t.thawRange(f, lo, hi)
	if err != nil && fresh && !t.frozen {
		// Roll a half-restored fresh thaw back to frozen (see the
		// prefixtree counterpart); the spill file is intact for a retry.
		t.Release()
	}
	return n, full, err
}

func (t *Tree) thawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	// A fully resident tree (possible as one shard of a partially thawed
	// sharded index) just skims its section: every chunk reads as thawed,
	// so the loop seeks straight to the stream end.
	skim := !t.frozen && !t.partial
	fresh := t.frozen
	var nRead int64
	magic, err := arena.ReadU64(f)
	if err != nil {
		return nRead, false, err
	}
	if magic != kissFreezeMagic {
		return nRead, false, fmt.Errorf("kisstree: bad freeze magic %#x", magic)
	}
	nRead += 8
	// Root, node and cnode sections: restore on a fresh thaw, seek past on
	// a top-up (they are already resident and possibly in use by readers).
	for sec := 0; sec < 3; sec++ {
		secBytes, err := arena.ReadU64(f)
		if err != nil {
			return nRead, false, err
		}
		nRead += 8
		if !fresh {
			if _, err := f.Seek(int64(secBytes), io.SeekCurrent); err != nil {
				return nRead, false, err
			}
			continue
		}
		br := bufio.NewReaderSize(io.LimitReader(f, int64(secBytes)), 1<<18)
		switch sec {
		case 0:
			err = t.readRootSection(br, nil)
		case 1:
			err = t.nodes.ReadChunks(br)
		case 2:
			err = t.readCnodeSection(br)
		}
		if err != nil {
			return nRead, false, err
		}
		nRead += int64(secBytes)
	}
	nLeaves, err := arena.ReadU64(f)
	if err != nil {
		return nRead, false, err
	}
	nChunks, err := arena.ReadU64(f)
	if err != nil {
		return nRead, false, err
	}
	dir := make([]uint64, 3*nChunks)
	if err := arena.ReadU64s(f, dir); err != nil {
		return nRead, false, err
	}
	nRead += 16 + 24*int64(nChunks)
	if fresh {
		t.slab = duplist.NewSlabIn(t.cfg.Recycler)
		t.leaves.Reset()
		for i := uint64(0); i < nLeaves; i++ {
			t.leaves.Alloc(Leaf{})
		}
		t.thawedChunks = make([]bool, nChunks)
		t.frozen = false
		t.partial = true
	}
	row := make([]uint64, t.cfg.PayloadWidth)
	n, full, err := arena.ThawChunks(f, &t.leaves, nLeaves, dir, t.thawedChunks, skim, lo, hi,
		func(r io.Reader, lf *Leaf) error {
			return readLeaf(r, lf, t.cfg.PayloadWidth, t.slab, row)
		})
	nRead += n
	if err != nil {
		return nRead, false, err
	}
	if full && !skim {
		t.partial = false
		t.thawedChunks = nil
	}
	return nRead, full, nil
}

// writeLeaf serializes one content leaf: key, row count, rows.
func writeLeaf(w io.Writer, lf *Leaf) error {
	if err := arena.WriteU64(w, lf.Key); err != nil {
		return err
	}
	if err := arena.WriteU64(w, uint64(lf.Vals.Len())); err != nil {
		return err
	}
	if lf.Vals.Width() == 0 {
		return nil // existence-only rows carry no storage
	}
	werr := error(nil)
	lf.Vals.Scan(func(row []uint64) bool {
		werr = arena.WriteU64s(w, row)
		return werr == nil
	})
	return werr
}

// readLeaf rebuilds one content leaf in place, drawing row storage from
// slab. row is a caller-provided width-sized scratch buffer.
func readLeaf(r io.Reader, lf *Leaf, width int, slab *duplist.Slab, row []uint64) error {
	key, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	n, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	*lf = Leaf{Key: key, Vals: duplist.Make(width)}
	for j := uint64(0); j < n; j++ {
		if width > 0 {
			if err := arena.ReadU64s(r, row); err != nil {
				return err
			}
		}
		lf.Vals.AppendIn(slab, row[:width])
	}
	return nil
}
