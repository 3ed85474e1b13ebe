// Package freeze is the one freeze codec of QPPT's tree indexes: the spill
// hooks of the generalized prefix tree and the KISS-Tree (ROADMAP "Index
// spilling").
//
// Every reference inside a tree is a compact pointer — an arena index, not
// a machine address — so the whole index is position-independent: a freeze
// writes the interior chunks verbatim and the content leaves (key + payload
// rows, which embed Go slices and so cannot be dumped raw) in one
// sequential pass, then detaches the chunk storage. A thaw reads the stream
// back into fresh chunks; node ordinals and leaf indices are reproduced
// exactly, so the restored tree answers every query identically. The cheap
// scalar state (key/row counters, geometry, bounds) stays in the tree
// struct, so planners keep consulting Keys()/Rows() on a frozen index
// without touching the spill file.
//
// The stream, in little-endian uint64 words unless a section says
// otherwise:
//
//	magic                                   per tree kind and format revision
//	{length prefix, payload}                one per interior Section, in order
//	nLeaves
//	nChunks, nChunks × {min key, max key, byte length}
//	nLeaves × {key, row count, rows}        a row is width words
//
// The length prefixes and the per-leaf-chunk directory
// (arena.LeafChunkDir) make the stream self-indexing, which buys a second,
// cheaper restore path next to the plain copying Thaw: ThawRange restores
// the interior in full but only the leaf chunks whose key range intersects
// a consumer's range. Skipped leaves stay zero (empty) — harmless for a
// range-restricted consumer, because a zero leaf carries no rows and the
// skipped chunks hold no key its range can reach. ThawRange is additive:
// calling it again seeks past the resident sections and restores further
// chunks in place, and a call spanning the full key space completes the
// tree.
//
// The codec consumes exactly its own bytes and never reads ahead, so
// several structures can share one stream (a sharded index snapshots all
// its shards into one spill file). Callers provide the buffering — a
// writer, a reader, or the arena.Source a ThawRange reads and skips through
// — and reuse it across events; wrapping w or r here would steal the next
// structure's bytes and cost an allocation per freeze or thaw.
//
// Every count a thaw takes from the stream is checked against the lengths
// the format records before it sizes an allocation or bounds a loop;
// violations fail with arena.ErrCorruptSnapshot, an early end of the
// stream with io.ErrUnexpectedEOF. A fresh thaw that fails leaves the tree
// frozen, holding no storage; a failed top-up keeps what was resident.
package freeze

import (
	"fmt"
	"io"
	"math"

	"qppt/internal/arena"
	"qppt/internal/duplist"
)

// A Leaf is a content node of either tree kind: the full key (dynamic
// expansion loses path information) plus all payload rows for that key.
// The row list is embedded by value to avoid a pointer chase per access.
type Leaf struct {
	Key  uint64
	Vals duplist.List
}

// A Section describes one interior section of a tree kind: what sits
// between the magic word and the leaves.
type Section struct {
	// Unit is the bytes per unit of the length prefix: 1 for a byte
	// length, 4 for the prefix tree's leaf free list, whose prefix counts
	// uint32 entries.
	Unit uint64
	// Size reports the payload's byte length, Write writes the payload.
	Size  func() uint64
	Write func(w *arena.Writer)
	// Read restores the payload from the next size bytes of r, of which it
	// must consume every one or fail. Storage it attached before failing
	// is dropped by the tree's Release.
	Read func(r *arena.Reader, size uint64) error
}

// State is the residency of a tree's chunk storage; the tree embeds it.
type State struct {
	frozen  bool
	partial bool
	thawed  []bool // per leaf chunk: restored by a ThawRange (while partial)
}

// Frozen reports whether the tree's chunk storage is currently detached
// (spilled). A frozen tree must not be queried or mutated until thawed.
func (s *State) Frozen() bool { return s.frozen }

// Partial reports whether only part of the leaf payloads is resident (see
// ThawRange). A partial tree must only be queried inside the union of the
// thawed key ranges.
func (s *State) Partial() bool { return s.partial }

// A Codec freezes and thaws one tree. The tree builds it on demand from
// its own fields; nothing in it outlives the call.
type Codec struct {
	*State
	Magic    uint64
	Width    int                // payload words per row
	Leaves   *arena.Arena[Leaf] // the content leaves
	Slab     *duplist.Slab      // backs the leaves' rows
	Sections []Section
	// Release is the tree's own Release: it drops the storage behind
	// Sections — coping with sections a failed Read left half-built — and
	// ends in the package's Release.
	Release func()
}

// WriteSnapshot writes the tree's storage to out in one sequential pass.
// The storage stays attached and the tree fully usable; call Release once
// the snapshot is safely persisted to actually detach it. Splitting the two
// is what makes a failed spill harmless: on any write error nothing has
// been dropped.
func (c Codec) WriteSnapshot(out io.Writer) error {
	if c.frozen || c.partial {
		return fmt.Errorf("freeze: WriteSnapshot on a frozen or partially thawed tree")
	}
	w := arena.Writer{W: out}
	w.U64(c.Magic)
	for _, s := range c.Sections {
		w.U64(s.Size() / s.Unit)
		s.Write(&w)
	}
	// A leaf takes its key, its row count and its rows. Free-list leaves
	// are zero and carry no rows, so only leaves with rows contribute to
	// the chunk key ranges.
	dir := arena.LeafChunkDir(c.Leaves,
		func(lf *Leaf) uint64 { return 16 + 8*uint64(c.Width)*uint64(lf.Vals.Len()) },
		func(lf *Leaf) (uint64, bool) { return lf.Key, lf.Vals.Len() > 0 })
	w.U64(uint64(c.Leaves.Len()))
	w.U64(uint64(len(dir) / 3))
	w.U64s(dir)
	// Rows go out in insertion order; existence-only rows have no bytes.
	c.Leaves.Scan(func(_ uint32, lf *Leaf) bool {
		w.U64(lf.Key)
		w.U64(uint64(lf.Vals.Len()))
		if lf.Vals.Width() > 0 {
			lf.Vals.Scan(func(row []uint64) bool {
				w.U64s(row)
				return w.Err == nil
			})
		}
		return w.Err == nil
	})
	return w.Err
}

// Release is the shared tail of a tree's Release, which detaches the
// storage the last WriteSnapshot captured: after the tree dropped its
// interior, the leaf arena and payload slab go to the recycler too (if
// there is one, else to the garbage collector) and the tree reads as
// frozen. It keeps its counters and geometry but must not be queried or
// mutated until thawed. Release allocates nothing — every dropped
// intermediate index comes through here, spilled or not.
func Release(s *State, leaves *arena.Arena[Leaf], slab *duplist.Slab) {
	leaves.Reset()
	slab.Release()
	*s = State{frozen: true}
}

// Freeze is WriteSnapshot + Release in one step, for callers whose write
// target cannot fail after the fact (e.g. an in-memory buffer).
func (c Codec) Freeze(w io.Writer) error {
	if err := c.WriteSnapshot(w); err != nil {
		return err
	}
	c.Release()
	return nil
}

// Thaw restores the storage WriteSnapshot wrote: interior sections come
// back verbatim, leaves are re-allocated index-for-index (so the compact
// pointers inside the restored nodes stay valid), and payload rows are
// rebuilt into the slab.
func (c Codec) Thaw(r io.Reader) error {
	if !c.frozen {
		return fmt.Errorf("freeze: Thaw on a tree that is not frozen")
	}
	_, _, err := c.thaw(r, nil, 0, ^uint64(0))
	return err
}

// ThawRange restores the tree far enough to serve queries inside [lo, hi]
// (see the package comment) and returns the stream bytes it took from src
// and whether the tree is now fully restored. A top-up never touches
// resident chunks, so concurrent readers of previously thawed ranges stay
// valid.
func (c Codec) ThawRange(src *arena.Source, lo, hi uint64) (int64, bool, error) {
	return c.thaw(src, src, lo, hi)
}

// thaw is the one restore: of everything from the stream in (src == nil;
// nRead is not counted), or of what [lo, hi] needs from the seekable
// src == in.
func (c Codec) thaw(in io.Reader, src *arena.Source, lo, hi uint64) (nRead int64, full bool, err error) {
	fresh := c.frozen
	// A fully resident tree (possible as one shard of a partially thawed
	// sharded index) just skims its stream: nothing is restored, every skip
	// lands on the stream end.
	skim := !c.frozen && !c.partial
	if fresh {
		defer func() {
			if err != nil {
				// Hand back whatever the failed pass attached: the tree reads
				// as frozen with zero bytes again, so residency accounting
				// stays right and a later pin can retry on the intact file.
				c.Release()
			}
		}()
	}
	r := &arena.Reader{R: in}
	if magic := r.U64(); r.Err == nil && magic != c.Magic {
		return 0, false, arena.Corruptf("freeze magic %#x, want %#x", magic, c.Magic)
	}
	nRead = 8
	for i, s := range c.Sections {
		n := r.U64()
		if r.Err != nil {
			return nRead, false, r.Err
		}
		nRead += 8
		if n > math.MaxInt64/s.Unit {
			return nRead, false, arena.Corruptf("section %d length prefix %d", i, n)
		}
		size := n * s.Unit
		if !fresh {
			// Already resident, possibly in use by readers: skip.
			if err := src.Skip(size); err != nil {
				return nRead, false, err
			}
			continue
		}
		if err := s.Read(r, size); err != nil {
			return nRead, false, err
		}
		nRead += int64(size)
	}
	nLeaves, nChunks := r.U64(), r.U64()
	if r.Err != nil {
		return nRead, false, r.Err
	}
	chunkLen := uint64(c.Leaves.ChunkLen())
	if nLeaves > arena.MaxElems || nChunks != (nLeaves+chunkLen-1)/chunkLen {
		return nRead, false, arena.Corruptf("%d leaf chunks for %d leaves", nChunks, nLeaves)
	}
	dir := r.U64sN(3 * nChunks)
	if r.Err != nil {
		return nRead, false, r.Err
	}
	nRead += 16 + 24*int64(nChunks)
	row := make([]uint64, c.Width)
	readLeaf := func(r *arena.Reader, lf *Leaf, left uint64) (uint64, error) {
		return c.readLeaf(r, lf, row, left)
	}

	if src == nil {
		// The whole stream in order; the directory's byte lengths bound
		// each chunk's row counts.
		for ci := uint64(0); ci < nChunks; ci++ {
			left := dir[3*ci+2]
			for j := ci * chunkLen; j < min(nLeaves, (ci+1)*chunkLen); j++ {
				used, err := readLeaf(r, c.Leaves.At(c.Leaves.Alloc(Leaf{})), left)
				if err != nil {
					return nRead, false, err
				}
				left -= used
			}
			if left != 0 {
				return nRead, false, arena.Corruptf("leaf chunk %d: %d bytes are not leaves", ci, left)
			}
		}
		c.frozen = false
		return nRead, true, nil
	}

	// The leaves must fit the directory, and the directory the file,
	// before either sizes an allocation.
	avail, err := src.Remaining()
	if err != nil {
		return nRead, false, err
	}
	var total uint64
	for ci := uint64(0); ci < nChunks; ci++ {
		nb := dir[3*ci+2]
		if total += nb; nb > avail || total > avail {
			return nRead, false, fmt.Errorf("leaf chunk %d of %d bytes: %w", ci, nb, io.ErrUnexpectedEOF)
		}
	}
	if 16*nLeaves > total || !fresh && nLeaves != uint64(c.Leaves.Len()) {
		return nRead, false, arena.Corruptf("%d leaves in %d bytes", nLeaves, total)
	}
	if fresh {
		for i := uint64(0); i < nLeaves; i++ {
			c.Leaves.Alloc(Leaf{})
		}
		c.thawed = make([]bool, nChunks)
	}
	n, full, err := arena.ThawChunks(src, c.Leaves, dir, c.thawed, skim, lo, hi, readLeaf)
	nRead += n
	if err != nil || skim {
		return nRead, full, err
	}
	c.frozen, c.partial = false, !full
	if full {
		c.thawed = nil
	}
	return nRead, full, nil
}

// readLeaf rebuilds one content leaf in place, drawing row storage from
// the slab, and reports the bytes it took, at most left — what remains of
// the leaf's chunk. row is a caller-provided width-sized scratch buffer.
func (c Codec) readLeaf(r *arena.Reader, lf *Leaf, row []uint64, left uint64) (uint64, error) {
	if left < 16 {
		return 0, arena.Corruptf("leaf header in %d bytes", left)
	}
	key, n := r.U64(), r.U64()
	if r.Err != nil {
		return 0, r.Err
	}
	if c.Width == 0 {
		if n > math.MaxInt {
			return 0, arena.Corruptf("leaf %d counts %d rows", key, n)
		}
		*lf = Leaf{Key: key, Vals: duplist.MakeCounted(int(n))}
		return 16, nil
	}
	if n > (left-16)/uint64(8*c.Width) {
		return 0, arena.Corruptf("leaf %d: %d rows in %d bytes", key, n, left-16)
	}
	*lf = Leaf{Key: key, Vals: duplist.Make(c.Width)}
	for j := uint64(0); j < n && r.Err == nil; j++ {
		r.U64s(row)
		lf.Vals.AppendIn(c.Slab, row)
	}
	return 16 + n*uint64(8*c.Width), r.Err
}
