package duplist

import "qppt/internal/arena"

// A Slab is an optional allocator for List memory. Without one, every
// first row and every duplicate segment of every key is a separate GC
// object (`make` per key); with one, an entire intermediate index draws
// its duplicate storage from a handful of large blocks owned by the tree
// that created it, and the memory is released wholesale when the operator
// drops the output index — there is nothing to free per key.
//
// Invariant: a Slab is SINGLE-WRITER, like the trees that own one.
// alloc bumps s.off/s.cur without synchronization, so concurrent
// AppendIn/AggregateIn through one slab race. This is a contract with
// package core, which is where slabs meet workers:
//
//   - each pool worker builds a private partial index — its own tree, its
//     own slab — so scan/probe parallelism never shares a slab;
//   - once the workers are done, the later partials' rows are re-inserted
//     into the first worker's tree on the one goroutine that runs the
//     operator, so its slab still has one writer;
//   - the spill manager freezes/thaws an index only while no operator has
//     it pinned, so no writer is active.
//
// Concurrent readers of a quiesced slab are safe (an operator's workers
// probe and scan its inputs that way). Anyone building indexes outside core must keep one
// writer per slab the same way.
type Slab struct {
	blocks [][]uint64
	cur    []uint64             // current block
	off    int                  // words used in cur
	segs   arena.Arena[segment] // segment headers, chunked like the data
	rec    *arena.Recycler      // optional plan-scoped block pool
	viewed int                  // words of the runs View adopted
}

const (
	// slabBlockWords is the slab block size: 8192 uint64 = 64 KiB, 16×
	// the largest duplicate segment, so block-tail waste stays under 7%.
	slabBlockWords = 8192
	// slabSegChunkBits: 512 segment headers (~10 KiB) per header chunk.
	slabSegChunkBits = 9
)

// NewSlabIn returns an empty slab drawing its blocks (and segment-header
// chunks) from a plan-scoped recycler; Release parks them there again when
// the owning index is dropped. A nil recycler allocates plainly.
func NewSlabIn(rec *arena.Recycler) *Slab {
	s := &Slab{segs: arena.Make[segment](slabSegChunkBits), rec: rec}
	s.segs.SetRecycler(rec)
	return s
}

// newBlock returns a zeroed full-size slab block, recycled when possible.
func (s *Slab) newBlock() []uint64 {
	if b, ok := arena.GetChunk[uint64](s.rec, slabBlockWords); ok {
		return b[:slabBlockWords]
	}
	return make([]uint64, slabBlockWords)
}

// alloc carves n words off the current block, starting a fresh block when
// the remainder is too small. Requests larger than a block (very wide
// rows) get a dedicated block.
func (s *Slab) alloc(n int) []uint64 {
	if n > slabBlockWords {
		b := make([]uint64, n)
		s.blocks = append(s.blocks, b)
		return b
	}
	if len(s.cur)-s.off < n {
		s.cur = s.newBlock()
		s.off = 0
		s.blocks = append(s.blocks, s.cur)
	}
	d := s.cur[s.off : s.off+n : s.off+n]
	s.off += n
	return d
}

// Release returns the slab's storage — full-size blocks and the
// segment-header chunks — to the recycler it was created with, leaving the
// slab empty. The caller must guarantee nothing references segment memory
// anymore: Release is meant for the moment the owning index is dropped or
// frozen. Without a recycler it merely drops the references for the
// garbage collector. Oversized blocks (wider than a row of slabBlockWords)
// and the runs View adopted are never pooled. The current block goes back
// at the length carved from it — nothing beyond off was ever written
// (arena's zero invariant), so a slab that held one row clears one row;
// earlier blocks are full but for a tail too small for the request that
// closed them.
func (s *Slab) Release() {
	for _, b := range s.blocks {
		if cap(b) != slabBlockWords {
			continue
		}
		if len(s.cur) > 0 && &b[0] == &s.cur[0] {
			b = b[:s.off]
		}
		arena.PutChunk(s.rec, b)
	}
	s.blocks, s.cur, s.off, s.viewed = nil, nil, 0, 0
	s.segs.Reset()
}

// newSegment returns a segment header backed by slab memory.
func (s *Slab) newSegment(words int) *segment {
	return s.segs.At(s.segs.Alloc(segment{data: s.alloc(words)}))
}

// View returns a list over the rows stored back to back in run, which
// must hold at least one row of width words: the first row inline and the
// rest as one segment, both aliasing run. The slab adopts run as storage
// it accounts for — Bytes counts it and Release drops it — but never
// writes it, pools it or reuses it: a later AppendIn grows a new segment.
// The caller must not write run afterwards.
func (s *Slab) View(run []uint64, width int) List {
	if width <= 0 || len(run) < width || len(run)%width != 0 {
		panic("duplist: a view needs whole rows of a positive width")
	}
	n := len(run)
	l := List{first: run[:width:width], n: n / width, width: width}
	if n > width {
		seg := s.segs.At(s.segs.Alloc(segment{used: n - width, data: run[width:n:n]}))
		l.head, l.tail = seg, seg
	}
	s.viewed += n
	return l
}

// Bytes reports the heap footprint of the slab: all blocks (including
// unused tails), the runs it views and the segment-header arena.
func (s *Slab) Bytes() int {
	b := s.viewed * wordBytes
	for _, blk := range s.blocks {
		b += len(blk) * wordBytes
	}
	return b + s.segs.Len()*segHeaderBytes
}

// segHeaderBytes estimates one segment header (next pointer + used int +
// slice header).
const segHeaderBytes = 40
