package prefixtree

import (
	"sync"

	"qppt/internal/arena"
)

// Batch processing (paper Section 2.3, Algorithm 1).
//
// As soon as a tree outgrows the CPU caches, pointer chasing serializes on
// one cache miss per level. Processing a batch of keys level-by-level makes
// the per-job loads within one level independent of each other, so the
// memory system overlaps their misses (the paper additionally issues
// explicit prefetches; in Go the independent loads themselves provide the
// memory-level parallelism). QPPT uses this for the join operators'
// joinbuffers and for buffered intermediate-index inserts.

// DefaultBatchSize is the batch size QPPT uses for joinbuffers and insert
// buffers when the caller does not choose one; it matches the paper
// demonstrator's middle setting.
//
//qpptvet:ignore unreached the root bench_test.go batches Figure 3's KISS Batched inserts by it
const DefaultBatchSize = 512

// lookupJob mirrors Algorithm 1's job structure, carrying arena indices
// instead of pointers: the key, the ordinal of the current node on the
// path (jobDone once finished), and the resolved leaf index + 1 (0 while
// unresolved/absent). 16 bytes per job — half the pointer layout's size —
// so a 512-key batch fits in a third of an L1 data cache.
type lookupJob struct {
	key  uint64
	node uint32
	leaf uint32
}

const jobDone = ^uint32(0)

// jobPool recycles batch scratch space so steady-state batched probes and
// inserts on the hot join path allocate nothing. A sync.Pool (rather than
// a tree-owned buffer) keeps concurrent LookupBatch calls from parallel
// morsel workers safe: each call checks out a private buffer.
var jobPool = sync.Pool{New: func() any { return new([]lookupJob) }}

// getJobs checks a job buffer of length n out of the pool, growing it
// only when a larger batch than ever before arrives.
func getJobs(n int) *[]lookupJob {
	jp := jobPool.Get().(*[]lookupJob)
	if cap(*jp) < n {
		*jp = make([]lookupJob, n)
	}
	*jp = (*jp)[:n]
	return jp
}

// LookupBatch resolves all keys and calls visit(i, leaf) for each, in
// batch order, where leaf is nil for absent keys. The traversal is
// level-synchronous: every pass advances every unfinished job by one tree
// level, so the node loads within a pass are independent and their cache
// misses overlap.
func (t *Tree) LookupBatch(keys []uint64, visit func(i int, lf *Leaf)) {
	if len(keys) == 0 {
		return
	}
	jp := getJobs(len(keys))
	jobs := *jp
	for i, k := range keys {
		t.checkKey(k)
		jobs[i] = lookupJob{key: k, node: rootNode}
	}
	pending := len(jobs)
	for level := 0; pending > 0; level++ {
		// Key-sorted batches place jobs that share a tree prefix next to
		// each other; memoizing the last (node, fragment) slot read walks
		// each shared descent once per level instead of once per job. The tree is not
		// mutated during a lookup, so the memo can never go stale; unsorted
		// batches still resolve correctly, they just rarely hit the memo.
		memoNode, memoFrag := jobDone, uint64(0)
		var memoRef arena.Ref
		for i := range jobs {
			j := &jobs[i]
			if j.node == jobDone {
				continue
			}
			f := t.frag(j.key, level)
			var r arena.Ref
			if j.node == memoNode && f == memoFrag {
				r = memoRef
			} else {
				r = arena.Ref(t.nodes.Block(j.node)[f])
				memoNode, memoFrag, memoRef = j.node, f, r
			}
			switch {
			case r.IsNil():
				j.node = jobDone
				pending--
			case r.IsLeaf():
				if li := r.Index(); t.leaf(li).Key == j.key {
					j.leaf = li + 1
				}
				j.node = jobDone
				pending--
			default:
				j.node = r.Index()
			}
		}
	}
	for i := range jobs {
		if lp := jobs[i].leaf; lp != 0 {
			visit(i, t.leaf(lp-1))
		} else {
			visit(i, nil)
		}
	}
	jobPool.Put(jp)
}

// InsertBatch inserts rows[i] under keys[i] for all i, advancing all jobs
// level-by-level like LookupBatch. rows may be nil for width-0 trees;
// otherwise len(rows) must equal len(keys).
func (t *Tree) InsertBatch(keys []uint64, rows [][]uint64) {
	if len(keys) == 0 {
		return
	}
	if rows != nil && len(rows) != len(keys) {
		panic("prefixtree: InsertBatch length mismatch")
	}
	jp := getJobs(len(keys))
	jobs := *jp
	for i, k := range keys {
		t.checkKey(k)
		jobs[i] = lookupJob{key: k, node: rootNode}
	}
	pending := len(jobs)
	for level := 0; pending > 0; level++ {
		for i := range jobs {
			j := &jobs[i]
			if j.node == jobDone {
				continue
			}
			blk := t.nodes.Block(j.node)
			f := t.frag(j.key, level)
			r := arena.Ref(blk[f])
			switch {
			case r.IsNil():
				li := t.newLeaf(j.key)
				blk[f] = uint32(arena.LeafRef(li))
				j.leaf = li + 1
				j.node = jobDone
				pending--
			case r.IsLeaf():
				li := r.Index()
				if t.leaf(li).Key == j.key {
					j.leaf = li + 1
					j.node = jobDone
					pending--
					continue
				}
				// Collision: expand one level and retry this job at the
				// new child on the next pass (the resident leaf moves
				// down, matching the single-key insert path).
				child := t.nodes.Alloc()
				t.nodes.Block(child)[t.frag(t.leaf(li).Key, level+1)] = uint32(r)
				blk[f] = uint32(arena.NodeRef(child))
				j.node = child
			default:
				j.node = r.Index()
			}
		}
	}
	for i := range jobs {
		var row []uint64
		if rows != nil {
			row = rows[i]
		}
		t.addRow(t.leaf(jobs[i].leaf-1), row)
	}
	jobPool.Put(jp)
}
