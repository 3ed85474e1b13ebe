// Package arena provides the chunked-arena storage and 32-bit tagged
// compact pointers shared by QPPT's in-memory index structures (paper
// Section 2.2; Kissinger et al., DaMoN 2012).
//
// Both tree kinds — the generalized prefix tree and the KISS-Tree — keep
// their nodes and content leaves in chunked arenas instead of individually
// heap-allocated objects. A chunk, once allocated, never moves, so an
// element's address is stable for the lifetime of the arena while the
// arena itself grows by whole chunks. Elements are addressed by a 32-bit
// index: half the width of a machine pointer, which doubles (for tagged
// child/leaf slots: quadruples, versus a two-pointer slot) the number of
// tree buckets per cache line, and — because arenas are a handful of large
// allocations instead of millions of tiny ones — removes almost all
// per-object GC bookkeeping for index-structure interiors.
package arena

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Ref is a tagged 32-bit compact pointer: one slot of a tree node. The
// zero value is the nil reference. Bit 31 is the tag: set for a leaf
// (content-node) reference, clear for a child-node reference. The low 31
// bits hold the element index + 1, so a valid reference is never zero and
// arenas are bounded at 2^31−1 elements — far beyond any in-memory index
// this engine builds (a tree that large would exceed 128 GiB of leaves).
type Ref uint32

// Nil is the empty slot value.
const Nil Ref = 0

const leafTag = 1 << 31

// NodeRef returns the compact pointer to child node idx.
func NodeRef(idx uint32) Ref { return Ref(idx + 1) }

// LeafRef returns the compact pointer to leaf idx.
func LeafRef(idx uint32) Ref { return Ref(idx+1) | leafTag }

// IsNil reports whether r is the empty slot value.
func (r Ref) IsNil() bool { return r == Nil }

// IsLeaf reports whether r points to a leaf. Only meaningful when r is
// not nil.
func (r Ref) IsLeaf() bool { return r&leafTag != 0 }

// Index returns the arena index r points to, for either tag.
func (r Ref) Index() uint32 { return uint32(r&^leafTag) - 1 }

// MaxElems is the arena capacity limit imposed by the compact pointer
// encoding (31 index bits, index+1 must not overflow into the tag).
const MaxElems = 1<<31 - 1

// An Arena is a chunked slab of T with stable addresses: elements are
// appended to fixed-capacity chunks and addressed by a dense uint32 index.
// Growing the arena allocates a new chunk; existing chunks never move, so
// *T obtained from At stays valid for the arena's lifetime.
//
// The zero value is not ready for use; create arenas with Make so the
// chunk geometry is fixed.
type Arena[T any] struct {
	chunks [][]T
	bits   uint   // log2 elements per chunk
	mask   uint32 // elements per chunk - 1
	n      int
	rec    *Recycler // optional chunk pool (SetRecycler)
}

// Make returns an arena with 2^chunkBits elements per chunk.
func Make[T any](chunkBits uint) Arena[T] {
	if chunkBits == 0 || chunkBits > 30 {
		panic(fmt.Sprintf("arena: chunkBits %d out of range [1,30]", chunkBits))
	}
	return Arena[T]{bits: chunkBits, mask: 1<<chunkBits - 1}
}

// SetRecycler routes the arena's chunk allocations through a plan-scoped
// chunk pool: growth draws matching chunks from rec before asking the
// heap, and Reset parks the chunks there instead of dropping them to the
// garbage collector. A nil rec restores plain heap allocation.
func (a *Arena[T]) SetRecycler(rec *Recycler) { a.rec = rec }

// At returns the address of element idx. The address is stable: chunks
// never move or shrink.
func (a *Arena[T]) At(idx uint32) *T {
	return &a.chunks[idx>>a.bits][idx&a.mask]
}

// grabChunk returns an empty chunk at full capacity, recycled when the
// pool has one.
func (a *Arena[T]) grabChunk() []T {
	if c, ok := GetChunk[T](a.rec, 1<<a.bits); ok {
		return c
	}
	return make([]T, 0, 1<<a.bits)
}

// Alloc appends v and returns its index.
func (a *Arena[T]) Alloc(v T) uint32 {
	if a.n >= MaxElems {
		panic("arena: arena full (2^31-1 elements)")
	}
	c := a.n >> a.bits
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, a.grabChunk())
	}
	a.chunks[c] = append(a.chunks[c], v)
	a.n++
	return uint32(a.n - 1)
}

// Len reports the number of elements allocated.
func (a *Arena[T]) Len() int { return a.n }

// ChunkLen reports the elements per chunk.
func (a *Arena[T]) ChunkLen() int { return 1 << a.bits }

// Bytes reports the element memory reserved by the arena. Chunks are
// allocated at full capacity (Alloc's make([]T, 0, 1<<bits) commits the
// whole chunk), so the reserved capacity — not just the appended elements —
// is what actually sits in the heap; eviction policies key off this number.
func (a *Arena[T]) Bytes() int {
	var zero T
	return len(a.chunks) * (1 << a.bits) * int(unsafe.Sizeof(zero))
}

// Reset drops every chunk, returning the arena to its post-Make state (the
// chunk geometry is kept). Spilling uses it to detach element storage after
// the elements were written out, and again to rebuild the arena on thaw.
// With a recycler configured the chunks are cleared and parked for reuse
// instead of going to the garbage collector.
func (a *Arena[T]) Reset() {
	for _, c := range a.chunks {
		PutChunk(a.rec, c)
	}
	a.chunks = nil
	a.n = 0
}

// Scan visits every allocated element in index order, stopping early if
// visit returns false and reporting whether it completed.
func (a *Arena[T]) Scan(visit func(idx uint32, v *T) bool) bool {
	idx := uint32(0)
	for _, chunk := range a.chunks {
		for i := range chunk {
			if !visit(idx, &chunk[i]) {
				return false
			}
			idx++
		}
	}
	return true
}

// Slots is a chunked arena of fixed-size blocks of uint32 slots — the node
// storage of a compact-pointer tree. A block holds one tree node's slots
// (the node fanout); blocks are addressed by a dense uint32 ordinal and,
// like Arena chunks, never move once allocated. Freed blocks are zeroed
// and recycled through a free list, so deletes do not grow the arena.
//
// The block length must be a power of two (it is a tree fanout), which
// keeps the per-access ordinal→chunk arithmetic to two shifts and a mask —
// Block sits on the per-level hot path of every tree traversal, where an
// integer division would cost more than the node load it locates.
//
// The zero value is not ready for use; create with MakeSlots.
type Slots struct {
	blockBits    uint // log2 slots per block (the node fanout)
	perChunkBits uint // log2 blocks per chunk
	chunks       [][]uint32
	n            int       // blocks ever allocated (excluding recycled)
	free         []uint32  // recycled block ordinals
	rec          *Recycler // optional chunk pool (SetRecycler)
}

// slotsChunkTarget is the chunk allocation granularity in slots (256 KiB
// of uint32 — the same granularity as the KISS-Tree root pages). Blocks
// larger than the target get one block per chunk.
const slotsChunkTarget = 1 << 16

// MakeSlots returns a Slots arena with the given block length, which must
// be a power of two.
func MakeSlots(blockLen int) Slots {
	if blockLen <= 0 || blockLen&(blockLen-1) != 0 {
		panic(fmt.Sprintf("arena: block length %d is not a positive power of two", blockLen))
	}
	blockBits := uint(bits.TrailingZeros(uint(blockLen)))
	perChunkBits := uint(0)
	if blockLen < slotsChunkTarget {
		perChunkBits = uint(bits.TrailingZeros(slotsChunkTarget)) - blockBits
	}
	return Slots{blockBits: blockBits, perChunkBits: perChunkBits}
}

// SetRecycler routes chunk growth through a plan-scoped chunk pool, like
// Arena.SetRecycler.
func (s *Slots) SetRecycler(rec *Recycler) { s.rec = rec }

// blockLen reports the slots per block.
func (s *Slots) blockLen() int { return 1 << s.blockBits }

// chunkWords reports the slot capacity of one chunk.
func (s *Slots) chunkWords() int { return 1 << (s.perChunkBits + s.blockBits) }

// grabChunk returns an empty slot chunk at full capacity, recycled when
// the pool has one.
func (s *Slots) grabChunk() []uint32 {
	if c, ok := GetChunk[uint32](s.rec, s.chunkWords()); ok {
		return c
	}
	return make([]uint32, 0, s.chunkWords())
}

// Block returns block ord as a slice of its slots. The slice aliases
// arena memory and stays valid as the arena grows.
func (s *Slots) Block(ord uint32) []uint32 {
	c := ord >> s.perChunkBits
	off := (int(ord) & (1<<s.perChunkBits - 1)) << s.blockBits
	return s.chunks[c][off : off+1<<s.blockBits : off+1<<s.blockBits]
}

// Alloc returns the ordinal of a zeroed block, recycling freed blocks
// before growing the arena.
func (s *Slots) Alloc() uint32 {
	if k := len(s.free); k > 0 {
		ord := s.free[k-1]
		s.free = s.free[:k-1]
		return ord
	}
	if s.n >= MaxElems {
		panic("arena: slot arena full (2^31-1 blocks)")
	}
	c := s.n >> s.perChunkBits
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, s.grabChunk())
	}
	s.chunks[c] = append(s.chunks[c], make([]uint32, s.blockLen())...)
	s.n++
	return uint32(s.n - 1)
}

// Free zeroes block ord and recycles it. The caller must not use the
// block afterwards; a later Alloc may hand it out again.
func (s *Slots) Free(ord uint32) {
	blk := s.Block(ord)
	for i := range blk {
		blk[i] = 0
	}
	s.free = append(s.free, ord)
}

// Live reports the number of blocks currently allocated and not freed.
func (s *Slots) Live() int { return s.n - len(s.free) }

// Allocated reports the number of blocks ever carved from the chunks
// (recycled blocks are not re-counted); with FreeBlocks it lets tests pin
// that deletes recycle storage instead of growing the arena.
func (s *Slots) Allocated() int { return s.n }

// FreeBlocks reports the number of recycled blocks awaiting reuse.
func (s *Slots) FreeBlocks() int { return len(s.free) }

// Bytes reports the slot memory reserved by the arena: the full capacity
// of every chunk, including recycled blocks awaiting reuse and the
// unappended tail of the newest chunk. Alloc commits a whole chunk up
// front (make([]uint32, 0, cap)), so counting only appended blocks would
// under-report resident memory right after a chunk grows — and the spill
// eviction policy keys off this number.
func (s *Slots) Bytes() int {
	return (len(s.chunks) << (s.perChunkBits + s.blockBits)) * 4
}
