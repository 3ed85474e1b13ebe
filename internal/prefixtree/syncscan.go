package prefixtree

import "qppt/internal/arena"

// Synchronous index scan (paper Section 4.2, Figure 6).
//
// Two unbalanced tries are scanned simultaneously from left to right. Only
// when a bucket is populated in *both* trees does the scan suspend on the
// current nodes and descend synchronously into both children; buckets used
// by only one tree are skipped without ever touching their subtrees. This
// is the join kernel of QPPT — and, through the same visit mechanism, the
// kernel of the intersect and distinct-union set operators.
//
// With the compact-pointer layout a node is a run of fanout uint32 slots,
// so the lockstep bucket walk reads both nodes at 16 buckets per cache
// line (k′=4) instead of 4 — the skip decisions that dominate a sparse
// scan touch a quarter of the memory they used to.

// syncNodes scans two nodes that sit at the same depth (level) in their
// respective trees, unbounded: SyncScan's walk of the interior fragments
// of its range. na/nb are node ordinals in their owning tree's arena.
func syncNodes(a, b *Tree, na, nb uint32, level int, visit func(la, lb *Leaf) bool) bool {
	ba, bb := a.nodes.Block(na), b.nodes.Block(nb)
	for f := 0; f < a.fanout; f++ {
		ra, rb := arena.Ref(ba[f]), arena.Ref(bb[f])
		if ra.IsNil() || rb.IsNil() {
			continue // bucket unused in at least one index: skip the descent
		}
		switch {
		case ra.IsLeaf() && rb.IsLeaf():
			la, lb := a.leaf(ra.Index()), b.leaf(rb.Index())
			if la.Key == lb.Key {
				if !visit(la, lb) {
					return false
				}
			}
		case ra.IsLeaf(): // a stored a content node high up, b has a subtree
			la := a.leaf(ra.Index())
			if lb := descend(b, rb.Index(), la.Key, level+1); lb != nil {
				if !visit(la, lb) {
					return false
				}
			}
		case rb.IsLeaf(): // b stored a content node high up, a has a subtree
			lb := b.leaf(rb.Index())
			if la := descend(a, ra.Index(), lb.Key, level+1); la != nil {
				if !visit(la, lb) {
					return false
				}
			}
		default: // both inner: suspend here, scan the children synchronously
			if !syncNodes(a, b, ra.Index(), rb.Index(), level+1, visit) {
				return false
			}
		}
	}
	return true
}

// SyncScan visits, in ascending key order, every key in [lo, hi] present
// in both a and b, passing both leaves. The trees must agree on PrefixLen
// and KeyBits so their fragment grids line up; SyncScan panics otherwise,
// since silently joining misaligned trees would drop matches. It stops
// early if visit returns false and reports whether the scan ran to
// completion.
//
// The bounds are the partitioning primitive for intra-operator
// parallelism (paper Section 7): the unbalanced tree splits
// deterministically into disjoint key-range subtrees, so concurrent
// workers can scan disjoint ranges of the same tree pair without
// coordination. A serial scan passes the pair's common key interval.
func SyncScan(a, b *Tree, lo, hi uint64, visit func(la, lb *Leaf) bool) bool {
	if a.cfg.PrefixLen != b.cfg.PrefixLen || a.cfg.KeyBits != b.cfg.KeyBits {
		panic("prefixtree: SyncScan on trees with different geometry")
	}
	if lo > hi {
		return true
	}
	return syncNodesRange(a, b, rootNode, rootNode, 0, lo, hi, visit)
}

// syncNodesRange is syncNodes with [lo, hi] bounds, handled exactly like
// Tree.rangeNode: only the edge fragments need recursive bound checks.
func syncNodesRange(a, b *Tree, na, nb uint32, level int, lo, hi uint64, visit func(la, lb *Leaf) bool) bool {
	ba, bb := a.nodes.Block(na), b.nodes.Block(nb)
	loFrag := a.frag(lo, level)
	hiFrag := a.frag(hi, level)
	for f := loFrag; f <= hiFrag; f++ {
		ra, rb := arena.Ref(ba[f]), arena.Ref(bb[f])
		if ra.IsNil() || rb.IsNil() {
			continue
		}
		switch {
		case ra.IsLeaf() && rb.IsLeaf():
			la, lb := a.leaf(ra.Index()), b.leaf(rb.Index())
			if la.Key == lb.Key && la.Key >= lo && la.Key <= hi {
				if !visit(la, lb) {
					return false
				}
			}
		case ra.IsLeaf():
			la := a.leaf(ra.Index())
			if la.Key >= lo && la.Key <= hi {
				if lb := descend(b, rb.Index(), la.Key, level+1); lb != nil {
					if !visit(la, lb) {
						return false
					}
				}
			}
		case rb.IsLeaf():
			lb := b.leaf(rb.Index())
			if lb.Key >= lo && lb.Key <= hi {
				if la := descend(a, ra.Index(), lb.Key, level+1); la != nil {
					if !visit(la, lb) {
						return false
					}
				}
			}
		default:
			ca, cb := ra.Index(), rb.Index()
			switch {
			case f == loFrag && f == hiFrag:
				if !syncNodesRange(a, b, ca, cb, level+1, lo, hi, visit) {
					return false
				}
			case f == loFrag:
				if !syncNodesRange(a, b, ca, cb, level+1, lo, a.keyMax(), visit) {
					return false
				}
			case f == hiFrag:
				if !syncNodesRange(a, b, ca, cb, level+1, 0, hi, visit) {
					return false
				}
			default:
				if !syncNodes(a, b, ca, cb, level+1, visit) {
					return false
				}
			}
		}
	}
	return true
}

// descend resolves key in the subtree rooted at node ordinal n of t, where
// n sits at the given depth. This covers the asymmetric case where dynamic
// expansion stored a key as a shallow content node in one tree while the
// other tree grew a subtree under the same fragment path.
func descend(t *Tree, n uint32, key uint64, level int) *Leaf {
	for {
		r := arena.Ref(t.nodes.Block(n)[t.frag(key, level)])
		if r.IsNil() {
			return nil
		}
		if r.IsLeaf() {
			if lf := t.leaf(r.Index()); lf.Key == key {
				return lf
			}
			return nil
		}
		n = r.Index()
		level++
	}
}
