package kisstree

import "math/bits"

// SyncScan is the synchronous index scan over two KISS-Trees (paper
// Section 4.2), restricted to keys in [lo, hi]: both root arrays are
// scanned in lockstep, clipped further to [max(a.min, b.min),
// min(a.max, b.max)] so dense keys never touch the full 2^26-bucket roots,
// and second-level nodes are only visited for buckets populated in both
// trees; their slot intersection is a single bitmap AND.
//
// The bounds are the partitioning primitive for intra-operator parallelism
// (paper Section 7): partition boundaries align with root buckets, so
// concurrent workers on disjoint ranges never touch the same second-level
// node. Visit receives the matching leaves in ascending key order.
// SyncScan stops early if visit returns false and reports whether it
// completed.
func SyncScan(a, b *Tree, lo, hi uint64, visit func(la, lb *Leaf) bool) bool {
	if lo > hi || a.keys == 0 || b.keys == 0 {
		return true
	}
	l := max(lo, uint64(max(a.minKey, b.minKey)))
	h := min(hi, uint64(min(a.maxKey, b.maxKey)))
	if l > h {
		return true
	}
	for rootIdx := uint32(l) >> leafBits; rootIdx <= uint32(h)>>leafBits; rootIdx++ {
		if a.root[rootIdx>>rootChunkBits] == nil || b.root[rootIdx>>rootChunkBits] == nil {
			// A whole 2^16-bucket chunk is untouched in one tree: skip it.
			rootIdx |= rootChunkMask
			continue
		}
		pa, pb := a.rootGet(rootIdx), b.rootGet(rootIdx)
		if pa == 0 || pb == 0 {
			continue // bucket unused in at least one index: skip
		}
		base := uint64(rootIdx) << leafBits
		if !syncNode(a, b, pa, pb, base, func(la, lb *Leaf) bool {
			if la.Key < l || la.Key > h {
				return true // edge bucket: clip to the range
			}
			return visit(la, lb)
		}) {
			return false
		}
	}
	return true
}

// syncNode intersects two second-level nodes that share a root bucket.
func syncNode(a, b *Tree, pa, pb uint32, base uint64, visit func(la, lb *Leaf) bool) bool {
	bma := nodeBitmap(a, pa)
	bmb := nodeBitmap(b, pb)
	both := bma & bmb
	for both != 0 {
		slot := bits.TrailingZeros64(both)
		both &= both - 1
		la := a.lookupInNode(pa, uint32(base)|uint32(slot))
		lb := b.lookupInNode(pb, uint32(base)|uint32(slot))
		if !visit(la, lb) {
			return false
		}
	}
	return true
}

// nodeBitmap returns the occupancy bitmap of a second-level node.
func nodeBitmap(t *Tree, ptr uint32) uint64 {
	n := t.nodes.Block(ptr - 1)
	var bm uint64
	for slot := 0; slot < nodeSlots; slot++ {
		if n[slot] != 0 {
			bm |= uint64(1) << slot
		}
	}
	return bm
}
