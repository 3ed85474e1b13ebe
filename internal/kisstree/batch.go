package kisstree

import (
	"math/bits"
	"sync"
)

// onesBelow counts occupied slots below slot in a compressed node's bitmap,
// i.e. the dense-array position of slot.
func onesBelow(bm uint64, slot int) int {
	return bits.OnesCount64(bm & (uint64(1)<<slot - 1))
}

// Batch processing for the KISS-Tree (paper Sections 2.3 and 2.5, the
// "KISS Batched" series of Figure 3).
//
// A KISS lookup is two dependent memory accesses (root bucket, then node
// slot) plus the content access. Processing a batch level-by-level turns
// each level into a tight loop of *independent* loads — all root accesses,
// then all node accesses, then all content accesses — so the memory system
// overlaps the cache misses across jobs instead of serializing them per
// key (the software-pipelining effect the paper gets from explicit
// prefetch instructions).

// ptrPool recycles the per-batch compact-pointer scratch so steady-state
// batched probes and inserts allocate nothing. A sync.Pool (rather than a
// tree-owned buffer) keeps concurrent LookupBatch calls from parallel
// morsel workers safe: each call checks out a private buffer.
var ptrPool = sync.Pool{New: func() any { return new([]uint32) }}

// getPtrs checks a uint32 scratch buffer of length n out of the pool,
// growing it only when a larger batch than ever before arrives.
func getPtrs(n int) *[]uint32 {
	pp := ptrPool.Get().(*[]uint32)
	if cap(*pp) < n {
		*pp = make([]uint32, n)
	}
	*pp = (*pp)[:n]
	return pp
}

// LookupBatch resolves all keys and calls visit(i, leaf) for each, in
// batch order, where leaf is nil for absent keys.
func (t *Tree) LookupBatch(keys []uint64, visit func(i int, lf *Leaf)) {
	if len(keys) == 0 {
		return
	}
	pp := getPtrs(len(keys))
	ptrs := *pp
	// Level 1: all root accesses back to back. Key-sorted batches place
	// same-bucket keys next to each other; reusing the previous root
	// access then walks each shared bucket descent once instead of once
	// per key.
	lastIdx, lastPtr, haveLast := uint32(0), uint32(0), false
	for i, key := range keys {
		idx := checkKey(key) >> leafBits
		if !haveLast || idx != lastIdx {
			lastIdx, lastPtr, haveLast = idx, t.rootGet(idx), true
		}
		ptrs[i] = lastPtr
	}
	// Level 2: all node-slot accesses back to back, reusing ptrs for the
	// resulting compact leaf pointers.
	if t.cfg.Compress {
		for i, key := range keys {
			ptr := ptrs[i]
			if ptr == 0 {
				continue
			}
			cn := &t.cnodes[ptr-1]
			slot := int(uint32(key) & slotMask)
			if cn.bitmap&(uint64(1)<<slot) == 0 {
				ptrs[i] = 0
				continue
			}
			ptrs[i] = cn.entries[onesBelow(cn.bitmap, slot)]
		}
	} else {
		for i, key := range keys {
			if ptr := ptrs[i]; ptr != 0 {
				ptrs[i] = t.nodes.Block(ptr - 1)[uint32(key)&slotMask]
			}
		}
	}
	// Level 3: content accesses, independent across jobs.
	for i, lp := range ptrs {
		if lp == 0 {
			visit(i, nil)
		} else {
			visit(i, t.leaves.At(lp-1))
		}
	}
	ptrPool.Put(pp)
}

// lookupInNode resolves the second level and content access for one key,
// given its root pointer. Shared by the synchronous index scan.
func (t *Tree) lookupInNode(ptr uint32, k uint32) *Leaf {
	slot := int(k & slotMask)
	if t.cfg.Compress {
		cn := &t.cnodes[ptr-1]
		bit := uint64(1) << slot
		if cn.bitmap&bit == 0 {
			return nil
		}
		return t.leaves.At(cn.entries[onesBelow(cn.bitmap, slot)] - 1)
	}
	lp := t.nodes.Block(ptr - 1)[slot]
	if lp == 0 {
		return nil
	}
	return t.leaves.At(lp - 1)
}

// InsertBatch inserts rows[i] under keys[i] for all i. rows may be nil for
// width-0 trees; otherwise len(rows) must equal len(keys).
func (t *Tree) InsertBatch(keys []uint64, rows [][]uint64) {
	if len(keys) == 0 {
		return
	}
	if rows != nil && len(rows) != len(keys) {
		panic("kisstree: InsertBatch length mismatch")
	}
	// Pass 1 resolves/creates all content nodes level-synchronously,
	// recording compact leaf pointers (arena indices + 1, not machine
	// pointers) in pooled scratch; pass 2 appends the payload rows.
	// Buffered intermediate-index inserts in QPPT operators run through
	// here.
	pp := getPtrs(len(keys))
	ptrs := *pp
	for i, key := range keys {
		ptrs[i] = t.leafPtrFor(checkKey(key))
	}
	for i, lp := range ptrs {
		var row []uint64
		if rows != nil {
			row = rows[i]
		}
		t.addRow(t.leaves.At(lp-1), row)
	}
	ptrPool.Put(pp)
}
