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
// There is one way back: Thaw reads the whole stream in order. The length
// prefixes and the per-leaf-chunk directory (arena.LeafChunkDir) are what
// it checks the stream against: every count a thaw takes from the stream
// is bounded by the lengths the format records before it sizes an
// allocation or bounds a loop, and every leaf's key must lie inside
// its chunk's recorded {min key, max key}. Violations fail with
// arena.ErrCorruptSnapshot, an early end of the stream with
// io.ErrUnexpectedEOF. A thaw that fails leaves the tree frozen, holding
// no storage.
//
// The codec consumes exactly its own bytes and never reads ahead. Callers
// provide the buffering — a writer or a reader — and reuse it across
// events; wrapping w or r here would cost an allocation per freeze or
// thaw.
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
	// Size reports the payload's byte length — the section's length
	// prefix — and Write writes the payload.
	Size  func() uint64
	Write func(w *arena.Writer)
	// Read restores the payload from the next size bytes of r, of which it
	// must consume every one or fail. Storage it attached before failing
	// is dropped by the tree's Release.
	Read func(r *arena.Reader, size uint64) error
}

// State is the residency of a tree's chunk storage; the tree embeds it.
type State struct {
	frozen bool
}

// Frozen reports whether the tree's chunk storage is currently detached
// (spilled). A frozen tree must not be queried or mutated until thawed.
//
//qpptvet:ignore unreached test support: the freeze, spill, tree and core tests assert residency through it
func (s *State) Frozen() bool { return s.frozen }

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
	if c.frozen {
		return fmt.Errorf("freeze: WriteSnapshot on a frozen tree")
	}
	w := arena.Writer{W: out}
	w.U64(c.Magic)
	for _, s := range c.Sections {
		w.U64(s.Size())
		s.Write(&w)
	}
	// A leaf takes its key, its row count and its rows.
	dir := arena.LeafChunkDir(c.Leaves,
		func(lf *Leaf) uint64 { return 16 + 8*uint64(c.Width)*uint64(lf.Vals.Len()) },
		func(lf *Leaf) uint64 { return lf.Key })
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
func (c Codec) Thaw(in io.Reader) (err error) {
	if !c.frozen {
		return fmt.Errorf("freeze: Thaw on a tree that is not frozen")
	}
	defer func() {
		if err != nil {
			// Hand back whatever the failed pass attached: the tree reads as
			// frozen with zero bytes again, so residency accounting stays
			// right and a later pin can retry on the intact file.
			c.Release()
		}
	}()
	r := &arena.Reader{R: in}
	if magic := r.U64(); r.Err == nil && magic != c.Magic {
		return arena.Corruptf("freeze magic %#x, want %#x", magic, c.Magic)
	}
	for _, s := range c.Sections {
		n := r.U64()
		if r.Err != nil {
			return r.Err
		}
		if err := s.Read(r, n); err != nil {
			return err
		}
	}
	nLeaves, nChunks := r.U64(), r.U64()
	if r.Err != nil {
		return r.Err
	}
	chunkLen := uint64(c.Leaves.ChunkLen())
	if nLeaves > arena.MaxElems || nChunks != (nLeaves+chunkLen-1)/chunkLen {
		return arena.Corruptf("%d leaf chunks for %d leaves", nChunks, nLeaves)
	}
	dir := r.U64sN(3 * nChunks)
	if r.Err != nil {
		return r.Err
	}
	// The directory's byte lengths bound each chunk's row counts, its key
	// columns each leaf's key.
	row := make([]uint64, c.Width)
	for ci := uint64(0); ci < nChunks; ci++ {
		minK, maxK, left := dir[3*ci], dir[3*ci+1], dir[3*ci+2]
		for j := ci * chunkLen; j < min(nLeaves, (ci+1)*chunkLen); j++ {
			lf := c.Leaves.At(c.Leaves.Alloc(Leaf{}))
			used, err := c.readLeaf(r, lf, row, left)
			if err != nil {
				return err
			}
			if lf.Key < minK || lf.Key > maxK {
				return arena.Corruptf("leaf %d: key %d outside its chunk's [%d, %d]", j, lf.Key, minK, maxK)
			}
			left -= used
		}
		if left != 0 {
			return arena.Corruptf("leaf chunk %d: %d bytes are not leaves", ci, left)
		}
	}
	c.frozen = false
	return nil
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
