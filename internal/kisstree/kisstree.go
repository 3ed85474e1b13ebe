// Package kisstree implements the KISS-Tree (Kissinger et al., DaMoN 2012)
// as deployed by QPPT (paper Section 2.2, Figure 2(b)).
//
// The KISS-Tree is a prefix tree specialized for 32-bit keys that reaches a
// content node in at most two node accesses. The key is split into exactly
// two fragments: 26 bits select one of 2^26 root buckets, each holding a
// 32-bit compact pointer (an arena offset, not a machine pointer) to a
// second-level node of 2^6 = 64 buckets addressed by the remaining 6 bits.
//
// The original system allocates the 256 MB root virtually and lets the OS
// fault pages in on first write. Go cannot reserve-without-commit (a flat
// 2^26-entry slice would be re-zeroed by the allocator whenever a span is
// reused, charging every short-lived intermediate index ~256 MB of memset),
// so the root is emulated as a page directory: a small table of 1024 chunk
// pointers whose 256 KB chunks are allocated on first write. That is the
// same mechanism the OS applies to the original's virtual root — a page
// table in front of lazily faulted memory — at the cost of one extra
// cache-resident load per root access.
//
// Second-level nodes exist in two layouts. The uncompressed layout is a
// plain 64-slot array updated in place. The compressed layout (the
// original KISS-Tree default) stores a 64-bit occupancy bitmap plus a dense
// array of only the present slots; it saves memory and preserves locality,
// but every insertion of a new key must copy the node RCU-style. QPPT
// therefore disables compression for dense key domains (paper Section 2.2);
// the Compress knob reproduces both behaviours and the copy overhead.
package kisstree

import (
	"fmt"
	"math/bits"

	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/freeze"
)

const (
	// KeyBits is the fixed key width of the KISS-Tree.
	KeyBits = 32
	// rootBits is the first fragment width (26 bits → 2^26 root buckets).
	rootBits = 26
	// leafBits is the second fragment width (6 bits → 64 node slots).
	leafBits  = KeyBits - rootBits
	rootSize  = 1 << rootBits
	nodeSlots = 1 << leafBits
	slotMask  = nodeSlots - 1

	// The virtual root's page directory: 1024 chunks of 2^16 buckets
	// (256 KB), materialized on first write.
	rootChunkBits = 16
	rootChunks    = rootSize >> rootChunkBits
	rootChunkMask = 1<<rootChunkBits - 1
)

// Config parameterizes a Tree.
type Config struct {
	// PayloadWidth is the number of uint64 attribute values per row.
	PayloadWidth int
	// Fold, if non-nil, makes insertion aggregate into the existing row
	// for the key instead of appending a duplicate.
	Fold func(dst, src []uint64)
	// Compress selects bitmask-compressed second-level nodes, which save
	// memory for sparse key ranges at the price of an RCU-style copy on
	// every new-key insert.
	Compress bool
	// Recycler, if non-nil, routes the tree's chunk storage — root pages,
	// node chunks, leaf chunks and slab blocks — through a plan-scoped
	// chunk pool (see package arena): growth draws from it, and
	// Release/Recycle park the chunks there for the next index.
	Recycler *arena.Recycler
}

// A Tree is a KISS-Tree mapping 32-bit keys to lists of fixed-width payload
// rows.
type Tree struct {
	cfg Config
	// root is the virtual root: a chunk directory of compact pointers.
	root [][]uint32
	// nodes stores uncompressed second-level nodes in the shared chunked
	// slot arena (package arena): one 64-slot block per node, addressed by
	// block ordinal, stable as the arena grows.
	nodes arena.Slots
	// cnodes are the compressed second-level nodes (bitmap + dense array).
	cnodes []cnode
	// leaves holds the content nodes; slot values are leaf index + 1.
	leaves arena.Arena[Leaf]
	// slab feeds duplicate-segment and first-row storage for all lists of
	// this tree, replacing per-key allocations with a few large blocks.
	slab *duplist.Slab

	keys, rows     int
	minKey, maxKey uint32
	// rootLo/rootHi bound the root buckets rootSet ever wrote (lo > hi:
	// none). Unlike minKey/maxKey the span never shrinks on Delete, so it
	// is exactly what Release must zero to hand the root pages back clean.
	rootLo, rootHi   uint32
	copies           int // RCU node copies performed (compression cost metric)
	touchedRootPages int // root pages written at least once (memory metric)

	// State says whether the chunk storage is spilled (Frozen) or only
	// partially back (Partial; see spill.go). Counters and bounds stay
	// valid throughout.
	freeze.State
}

// cnode is a bitmask-compressed second-level node: a 64-bit occupancy
// bitmap plus a dense array of compact leaf pointers for the present slots.
type cnode struct {
	bitmap  uint64
	entries []uint32
}

// A Leaf is a content node: the full key and the payload row list. Both
// tree kinds share the type, and with it one freeze codec.
type Leaf = freeze.Leaf

const leafChunkBits = 13 // 8192 leaves (~512 KB) per chunk

// New creates an empty KISS-Tree. The root is allocated virtually
// (2^26 × 4 B of untouched zero pages).
func New(cfg Config) (*Tree, error) {
	if cfg.PayloadWidth < 0 {
		return nil, fmt.Errorf("kisstree: negative PayloadWidth")
	}
	t := &Tree{
		cfg:    cfg,
		nodes:  arena.MakeSlots(nodeSlots),
		leaves: arena.Make[Leaf](leafChunkBits),
		slab:   duplist.NewSlabIn(cfg.Recycler),
		minKey: ^uint32(0),
		rootLo: ^uint32(0),
	}
	t.root = t.newRootDir()
	t.nodes.SetRecycler(cfg.Recycler)
	t.leaves.SetRecycler(cfg.Recycler)
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Keys reports the number of distinct keys.
func (t *Tree) Keys() int { return t.keys }

// Rows reports the total number of payload rows.
func (t *Tree) Rows() int { return t.rows }

// PayloadWidth reports the payload row width in uint64 words.
func (t *Tree) PayloadWidth() int { return t.cfg.PayloadWidth }

// RCUCopies reports how many second-level node copies compression has
// caused; always 0 for uncompressed trees. Exposed for the compression
// ablation benchmark.
//
//qpptvet:ignore unreached the KISS compression ablation in the root bench_test.go reports it
func (t *Tree) RCUCopies() int { return t.copies }

func checkKey(key uint64) uint32 {
	if key >= 1<<KeyBits {
		panic(fmt.Sprintf("kisstree: key %#x exceeds 32 bits", key))
	}
	return uint32(key)
}

// rootGet reads a root bucket through the page directory; untouched
// chunks read as empty.
func (t *Tree) rootGet(idx uint32) uint32 {
	c := t.root[idx>>rootChunkBits]
	if c == nil {
		return 0
	}
	return c[idx&rootChunkMask]
}

// rootSet writes a root bucket, faulting the chunk in on first write.
func (t *Tree) rootSet(idx, v uint32) {
	c := t.root[idx>>rootChunkBits]
	if c == nil {
		c = t.newRootChunk()
		t.root[idx>>rootChunkBits] = c
	}
	c[idx&rootChunkMask] = v
	t.rootLo, t.rootHi = min(t.rootLo, idx), max(t.rootHi, idx)
}

// newRootDir returns an empty page directory, recycled when the plan pool
// has one: at 24 KiB it would otherwise be the largest fixed allocation of
// a small index.
func (t *Tree) newRootDir() [][]uint32 {
	return arena.NewChunk[[]uint32](t.cfg.Recycler, rootChunks)[:rootChunks]
}

// newRootChunk returns a zeroed root page chunk, recycled when the plan
// pool has one (root pages share the 256 KiB uint32 size class with the
// node-slot chunks of both tree kinds).
func (t *Tree) newRootChunk() []uint32 {
	if c, ok := arena.GetChunk[uint32](t.cfg.Recycler, 1<<rootChunkBits); ok {
		return c[:1<<rootChunkBits]
	}
	return make([]uint32, 1<<rootChunkBits)
}

// Insert adds a payload row under key (which must fit in 32 bits). With a
// Fold configured, the row is aggregated into the existing row instead.
func (t *Tree) Insert(key uint64, row []uint64) {
	k := checkKey(key)
	lf := t.leafFor(k)
	t.addRow(lf, row)
}

func (t *Tree) addRow(lf *Leaf, row []uint64) {
	if t.cfg.Fold != nil {
		was := lf.Vals.Len()
		lf.Vals.AggregateIn(t.slab, row, t.cfg.Fold)
		t.rows += lf.Vals.Len() - was
		return
	}
	lf.Vals.AppendIn(t.slab, row)
	t.rows++
}

// leafFor finds or creates the content entry for k.
func (t *Tree) leafFor(k uint32) *Leaf {
	return t.leaves.At(t.leafPtrFor(k) - 1)
}

// leafPtrFor finds or creates the content entry for k and returns its
// compact pointer (leaf arena index + 1) — the form batch inserts keep in
// their job state.
func (t *Tree) leafPtrFor(k uint32) uint32 {
	rootIdx := k >> leafBits
	slot := int(k & slotMask)
	ptr := t.rootGet(rootIdx)
	if ptr == 0 {
		t.touchedRootPages++ // approximation: one new bucket ~ page share
	}
	if t.cfg.Compress {
		return t.leafPtrForCompressed(rootIdx, slot, k, ptr)
	}
	if ptr == 0 {
		ptr = t.nodes.Alloc() + 1 // block ordinal + 1
		t.rootSet(rootIdx, ptr)
	}
	n := t.nodes.Block(ptr - 1)
	if n[slot] == 0 {
		n[slot] = t.newLeaf(k)
	}
	return n[slot]
}

// leafPtrForCompressed is the RCU path: adding a slot to a compressed node
// copies its dense entry array.
func (t *Tree) leafPtrForCompressed(rootIdx uint32, slot int, k uint32, ptr uint32) uint32 {
	bit := uint64(1) << slot
	if ptr == 0 {
		lp := t.newLeaf(k)
		t.cnodes = append(t.cnodes, cnode{bitmap: bit, entries: []uint32{lp}})
		t.rootSet(rootIdx, uint32(len(t.cnodes)))
		return lp
	}
	cn := &t.cnodes[ptr-1]
	pos := bits.OnesCount64(cn.bitmap & (bit - 1))
	if cn.bitmap&bit != 0 {
		return cn.entries[pos]
	}
	// New key in an existing node: copy the entry array (RCU update), then
	// publish the new node. In the original system the copy is what allows
	// lock-free readers; here it faithfully reproduces the copy cost.
	entries := make([]uint32, len(cn.entries)+1)
	copy(entries, cn.entries[:pos])
	entries[pos] = t.newLeaf(k)
	copy(entries[pos+1:], cn.entries[pos:])
	cn.entries = entries
	cn.bitmap |= bit
	t.copies++
	return entries[pos]
}

// newLeaf appends a fresh leaf for key k to the arena, returning its
// compact pointer (index+1).
func (t *Tree) newLeaf(k uint32) uint32 {
	lp := t.leaves.Alloc(Leaf{Key: uint64(k), Vals: duplist.Make(t.cfg.PayloadWidth)}) + 1
	t.keys++
	if k < t.minKey {
		t.minKey = k
	}
	if k > t.maxKey {
		t.maxKey = k
	}
	return lp
}

// Lookup returns the leaf for key, or nil if absent.
func (t *Tree) Lookup(key uint64) *Leaf {
	k := checkKey(key)
	ptr := t.rootGet(k >> leafBits)
	if ptr == 0 {
		return nil
	}
	slot := int(k & slotMask)
	if t.cfg.Compress {
		cn := &t.cnodes[ptr-1]
		bit := uint64(1) << slot
		if cn.bitmap&bit == 0 {
			return nil
		}
		pos := bits.OnesCount64(cn.bitmap & (bit - 1))
		return t.leaves.At(cn.entries[pos] - 1)
	}
	lp := t.nodes.Block(ptr - 1)[slot]
	if lp == 0 {
		return nil
	}
	return t.leaves.At(lp - 1)
}

// Min returns the smallest key; ok is false if the tree is empty.
func (t *Tree) Min() (uint64, bool) {
	if t.keys == 0 {
		return 0, false
	}
	return uint64(t.minKey), true
}

// Max returns the largest key; ok is false if the tree is empty.
func (t *Tree) Max() (uint64, bool) {
	if t.keys == 0 {
		return 0, false
	}
	return uint64(t.maxKey), true
}

// Iterate visits every leaf in ascending key order, restricted to the root
// range actually in use (the min/max trick from the synchronous scan). It
// stops early if visit returns false and reports whether it completed.
func (t *Tree) Iterate(visit func(lf *Leaf) bool) bool {
	if t.keys == 0 {
		return true
	}
	return t.iterateRange(t.minKey, t.maxKey, visit)
}

// Range visits, in ascending key order, every leaf with lo <= key <= hi.
// The bounds may lie outside the 32-bit key space: they are clipped to the
// keys the tree holds before they are narrowed, so a bound past 2^32−1
// matches nothing beyond the largest key.
func (t *Tree) Range(lo, hi uint64, visit func(lf *Leaf) bool) bool {
	if t.keys == 0 {
		return true
	}
	lo, hi = max(lo, uint64(t.minKey)), min(hi, uint64(t.maxKey))
	if lo > hi {
		return true
	}
	return t.iterateRange(uint32(lo), uint32(hi), visit)
}

func (t *Tree) iterateRange(lo, hi uint32, visit func(lf *Leaf) bool) bool {
	for rootIdx := lo >> leafBits; rootIdx <= hi>>leafBits; rootIdx++ {
		if t.root[rootIdx>>rootChunkBits] == nil {
			// Skip the whole untouched chunk.
			rootIdx |= rootChunkMask
			continue
		}
		ptr := t.rootGet(rootIdx)
		if ptr == 0 {
			continue
		}
		base := uint64(rootIdx) << leafBits
		if t.cfg.Compress {
			cn := &t.cnodes[ptr-1]
			bm := cn.bitmap
			for bm != 0 {
				slot := bits.TrailingZeros64(bm)
				bm &= bm - 1
				k := base | uint64(slot)
				if k < uint64(lo) || k > uint64(hi) {
					continue
				}
				pos := bits.OnesCount64(cn.bitmap & (uint64(1)<<slot - 1))
				if !visit(t.leaves.At(cn.entries[pos] - 1)) {
					return false
				}
			}
			continue
		}
		n := t.nodes.Block(ptr - 1)
		for slot := 0; slot < nodeSlots; slot++ {
			lp := n[slot]
			if lp == 0 {
				continue
			}
			k := base | uint64(slot)
			if k < uint64(lo) || k > uint64(hi) {
				continue
			}
			if !visit(t.leaves.At(lp - 1)) {
				return false
			}
		}
	}
	return true
}

// Bytes estimates the *physically touched* heap footprint in bytes: the
// node arena, leaf-header arena and payload slab, plus the root pages
// that were actually written (the untouched remainder of the 256 MB root
// is virtual only).
func (t *Tree) Bytes() int {
	b := t.nodes.Bytes() + len(t.cnodes)*32
	for i := range t.cnodes {
		b += len(t.cnodes[i].entries) * 4
	}
	b += t.leaves.Bytes() + t.slab.Bytes()
	// Root: the directory plus the chunks actually faulted in.
	if t.root != nil {
		b += rootChunks * 8
	}
	for _, c := range t.root {
		if c != nil {
			b += len(c) * 4
		}
	}
	return b
}
