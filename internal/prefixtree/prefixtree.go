// Package prefixtree implements the generalized prefix tree of Böhm et al.
// as deployed by QPPT (paper Section 2.1, Figure 2(a)).
//
// The tree is order-preserving and — unlike a B+-Tree — unbalanced: it
// splits the big-endian binary representation of a key into fragments of an
// equal prefix length k′ and uses each fragment to pick one of the 2^k′
// buckets of the node at that level, so every key has a fixed position in
// the tree. Thanks to the *dynamic expansion* optimization, a key's content
// node is stored at the shallowest level at which its fragment path is
// unique; inner nodes are only created on demand when two keys collide.
// Because of that, the key cannot always be reconstructed from the path, so
// content nodes store the complete key for the final comparison.
//
// Storage follows the compact-pointer arena layout of the KISS-Tree (paper
// Section 2.2; Kissinger et al., DaMoN 2012): nodes live in a chunked slot
// arena and content leaves in a chunked leaf arena (package arena), and a
// node bucket is a single 32-bit tagged reference — empty, child node, or
// leaf — instead of a {child, leaf} pointer pair. That packs 4× more
// buckets into a cache line than the pointer layout (16 slots per line at
// k′=4), keeps the garbage collector out of tree interiors (a million-node
// tree is a handful of chunk allocations, not a million scannable
// objects), and survives arena growth because chunks never move.
//
// Duplicates — multiple payload rows per key — are stored in sequential
// doubling segments (package duplist, paper Section 2.4) carved from a
// slab owned by the tree, and batched lookups/inserts process many keys
// level-by-level to overlap their memory accesses (paper Section 2.3,
// Algorithm 1).
//
// The tree is a single-writer structure: concurrent readers are safe only
// while no writer is active. QPPT's evaluation is single-threaded by
// design, matching the paper.
package prefixtree

import (
	"fmt"

	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/freeze"
)

// Config parameterizes a Tree.
type Config struct {
	// PrefixLen is k′, the number of key bits consumed per tree level.
	// Must be in [1, 16]; the paper's default (and the best standard
	// trade-off, Section 2.1) is 4.
	PrefixLen uint
	// KeyBits is the key width in bits, in [1, 64]. Index keys narrower
	// than 64 bits make the tree shallower. Default 64.
	KeyBits uint
	// PayloadWidth is the number of uint64 attribute values stored per
	// row. Width 0 builds a pure existence index.
	PayloadWidth int
	// Fold, if non-nil, turns the tree into an aggregating index:
	// inserting a row under an existing key folds the new row into the
	// stored one instead of appending a duplicate (grouping/aggregation
	// as a side effect of index construction, paper Section 3).
	Fold func(dst, src []uint64)
	// Recycler, if non-nil, routes the tree's chunk storage — node
	// chunks, leaf chunks and slab blocks — through a plan-scoped chunk
	// pool: growth draws from it, and Release/Recycle park the chunks
	// there for the next index instead of handing them to the GC.
	Recycler *arena.Recycler
}

func (c *Config) normalize() error {
	if c.PrefixLen == 0 {
		c.PrefixLen = 4
	}
	if c.KeyBits == 0 {
		c.KeyBits = 64
	}
	if c.PrefixLen > 16 {
		return fmt.Errorf("prefixtree: PrefixLen %d out of range [1,16]", c.PrefixLen)
	}
	if c.KeyBits > 64 {
		return fmt.Errorf("prefixtree: KeyBits %d out of range [1,64]", c.KeyBits)
	}
	if c.PayloadWidth < 0 {
		return fmt.Errorf("prefixtree: negative PayloadWidth")
	}
	return nil
}

// rootNode is the arena ordinal of the root node; it is allocated first
// and never freed.
const rootNode uint32 = 0

// leafChunkBits sizes the leaf arena chunks: 4096 leaves (~256 KiB) per
// chunk, matching the slot-arena chunk granularity.
const leafChunkBits = 12

// A Tree is a generalized prefix tree mapping uint64 keys to lists of
// fixed-width payload rows.
type Tree struct {
	cfg    Config
	levels int    // maximum depth in nodes
	fanout int    // 2^k′
	mask   uint64 // fanout-1
	keys   int    // distinct keys
	rows   int    // total payload rows

	// nodes stores each inner node as one block of fanout tagged slots;
	// leaves stores the content nodes. Both arenas have stable addresses,
	// so *Leaf results stay valid while the tree grows.
	nodes  arena.Slots
	leaves arena.Arena[Leaf]

	// slab feeds duplicate-segment and first-row storage for all of this
	// tree's lists, so index construction allocates large blocks instead
	// of per-key objects.
	slab *duplist.Slab

	// State says whether the chunk storage is spilled (Frozen) or only
	// partially back (Partial; see spill.go). Counters and geometry stay
	// valid throughout.
	freeze.State
}

// A Leaf is a content node: the full key plus all payload rows for that
// key. Both tree kinds share the type, and with it one freeze codec.
type Leaf = freeze.Leaf

// New creates an empty tree. It returns an error for out-of-range
// configuration values.
func New(cfg Config) (*Tree, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:    cfg,
		fanout: 1 << cfg.PrefixLen,
		mask:   uint64(1)<<cfg.PrefixLen - 1,
		levels: int((cfg.KeyBits + cfg.PrefixLen - 1) / cfg.PrefixLen),
		nodes:  arena.MakeSlots(1 << cfg.PrefixLen),
		leaves: arena.Make[Leaf](leafChunkBits),
		slab:   duplist.NewSlabIn(cfg.Recycler),
	}
	t.nodes.SetRecycler(cfg.Recycler)
	t.leaves.SetRecycler(cfg.Recycler)
	t.nodes.Alloc() // the root, ordinal 0
	return t, nil
}

// MustNew is New that panics on error, for static configurations.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// frag extracts the key fragment for the given level (0 = root). Fragments
// are taken from the most significant bits first so bucket order equals key
// order, which makes the tree order-preserving.
func (t *Tree) frag(key uint64, level int) uint64 {
	shift := int(t.cfg.KeyBits) - (level+1)*int(t.cfg.PrefixLen)
	if shift <= 0 {
		// Deepest level: the remaining low-order bits.
		return key & (t.mask >> uint(-shift))
	}
	return (key >> uint(shift)) & t.mask
}

// Keys reports the number of distinct keys in the tree.
func (t *Tree) Keys() int { return t.keys }

// Rows reports the total number of payload rows in the tree.
func (t *Tree) Rows() int { return t.rows }

// PayloadWidth reports the payload row width in uint64 words.
func (t *Tree) PayloadWidth() int { return t.cfg.PayloadWidth }

// KeyBits reports the configured key width in bits.
func (t *Tree) KeyBits() uint { return t.cfg.KeyBits }

// PrefixLen reports k′.
func (t *Tree) PrefixLen() uint { return t.cfg.PrefixLen }

// checkKey panics if key has bits outside the configured key width; such a
// key can never be stored or found and always indicates a caller bug.
func (t *Tree) checkKey(key uint64) {
	if t.cfg.KeyBits < 64 && key>>t.cfg.KeyBits != 0 {
		panic(fmt.Sprintf("prefixtree: key %#x exceeds %d key bits", key, t.cfg.KeyBits))
	}
}

// leaf returns the address of leaf idx in the arena.
func (t *Tree) leaf(idx uint32) *Leaf { return t.leaves.At(idx) }

// newLeaf allocates a content node for key and returns its arena index.
func (t *Tree) newLeaf(key uint64) uint32 {
	t.keys++
	return t.leaves.Alloc(Leaf{Key: key, Vals: duplist.Make(t.cfg.PayloadWidth)})
}

// Insert adds a payload row under key. With a Fold configured, the row is
// aggregated into the existing row for the key instead.
func (t *Tree) Insert(key uint64, row []uint64) {
	t.checkKey(key)
	lf := t.leafFor(key)
	t.addRow(lf, row)
}

// addRow appends or folds row into lf, maintaining the row count. Storage
// comes from the tree's slab.
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

// leafFor finds or creates the content node for key, applying dynamic
// expansion on collision.
func (t *Tree) leafFor(key uint64) *Leaf {
	n := rootNode
	for level := 0; ; level++ {
		blk := t.nodes.Block(n)
		f := t.frag(key, level)
		r := arena.Ref(blk[f])
		if !r.IsNil() && !r.IsLeaf() {
			n = r.Index()
			continue
		}
		if r.IsNil() {
			li := t.newLeaf(key)
			blk[f] = uint32(arena.LeafRef(li))
			return t.leaf(li)
		}
		li := r.Index()
		lf := t.leaf(li)
		if lf.Key == key {
			return lf
		}
		// Collision: expand by one level, pushing the resident leaf down.
		// The loop retries the same key at the new child; keys differ, so
		// their fragment paths split within t.levels levels and the loop
		// terminates. blk stays valid across Alloc: chunks never move.
		child := t.nodes.Alloc()
		t.nodes.Block(child)[t.frag(lf.Key, level+1)] = uint32(r)
		blk[f] = uint32(arena.NodeRef(child))
		n = child
	}
}

// Lookup returns the leaf for key, or nil if the key is absent.
func (t *Tree) Lookup(key uint64) *Leaf {
	t.checkKey(key)
	n := rootNode
	for level := 0; ; level++ {
		r := arena.Ref(t.nodes.Block(n)[t.frag(key, level)])
		if r.IsNil() {
			return nil
		}
		if r.IsLeaf() {
			lf := t.leaf(r.Index())
			if lf.Key == key {
				return lf
			}
			return nil
		}
		n = r.Index()
	}
}

// Contains reports whether key is present.
func (t *Tree) Contains(key uint64) bool { return t.Lookup(key) != nil }

// Iterate visits every leaf in ascending key order. It stops early if visit
// returns false and reports whether the scan ran to completion.
func (t *Tree) Iterate(visit func(lf *Leaf) bool) bool {
	return t.iterate(rootNode, visit)
}

func (t *Tree) iterate(n uint32, visit func(lf *Leaf) bool) bool {
	for _, v := range t.nodes.Block(n) {
		r := arena.Ref(v)
		switch {
		case r.IsNil():
		case r.IsLeaf():
			if !visit(t.leaf(r.Index())) {
				return false
			}
		default:
			if !t.iterate(r.Index(), visit) {
				return false
			}
		}
	}
	return true
}

// Range visits, in ascending key order, every leaf with lo <= key <= hi.
// It stops early if visit returns false and reports whether the scan ran to
// completion.
func (t *Tree) Range(lo, hi uint64, visit func(lf *Leaf) bool) bool {
	t.checkKey(lo)
	t.checkKey(hi)
	if lo > hi {
		return true
	}
	return t.rangeNode(rootNode, 0, lo, hi, visit)
}

func (t *Tree) rangeNode(n uint32, level int, lo, hi uint64, visit func(lf *Leaf) bool) bool {
	// Restrict the fragment window at this level using the bounds' paths.
	// Only the first and last qualifying buckets need recursive bound
	// checks; buckets strictly between them are fully inside the range.
	blk := t.nodes.Block(n)
	loFrag := t.frag(lo, level)
	hiFrag := t.frag(hi, level)
	for f := loFrag; f <= hiFrag; f++ {
		r := arena.Ref(blk[f])
		if r.IsNil() {
			continue
		}
		if r.IsLeaf() {
			lf := t.leaf(r.Index())
			if lf.Key >= lo && lf.Key <= hi {
				if !visit(lf) {
					return false
				}
			}
			continue
		}
		child := r.Index()
		switch {
		case f == loFrag && f == hiFrag:
			if !t.rangeNode(child, level+1, lo, hi, visit) {
				return false
			}
		case f == loFrag:
			if !t.rangeNode(child, level+1, lo, t.keyMax(), visit) {
				return false
			}
		case f == hiFrag:
			if !t.rangeNode(child, level+1, 0, hi, visit) {
				return false
			}
		default:
			if !t.iterate(child, visit) {
				return false
			}
		}
	}
	return true
}

// keyMax returns the largest representable key for the configured width.
// Once the scan has descended past the low (resp. high) edge of a range,
// the bound on the other side no longer constrains the subtree, so it is
// widened to the full key space.
func (t *Tree) keyMax() uint64 {
	if t.cfg.KeyBits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<t.cfg.KeyBits - 1
}

// Min returns the smallest key in the tree; ok is false if the tree is
// empty.
func (t *Tree) Min() (key uint64, ok bool) {
	t.Iterate(func(lf *Leaf) bool {
		key, ok = lf.Key, true
		return false
	})
	return key, ok
}

// Max returns the largest key in the tree; ok is false if the tree is
// empty.
func (t *Tree) Max() (uint64, bool) {
	n := rootNode
	for {
		blk := t.nodes.Block(n)
		last := arena.Nil
		for i := t.fanout - 1; i >= 0; i-- {
			if r := arena.Ref(blk[i]); !r.IsNil() {
				last = r
				break
			}
		}
		if last.IsNil() {
			return 0, false
		}
		if last.IsLeaf() {
			return t.leaf(last.Index()).Key, true
		}
		n = last.Index()
	}
}

// Bytes estimates the heap footprint of the tree in bytes: the node slot
// arena, the leaf arena, and the slab holding all payload rows and
// duplicate segments. Arena numbers are reserved chunk capacity, so the
// estimate tracks what actually sits in the heap; a frozen (spilled) tree
// reports only its residual in-memory state.
func (t *Tree) Bytes() int {
	return t.nodes.Bytes() + t.leaves.Bytes() + t.slab.Bytes()
}
