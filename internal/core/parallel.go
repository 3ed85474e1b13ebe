package core

import (
	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
	"qppt/internal/spill"
)

// Intra-operator parallelism (paper Section 7).
//
// The paper identifies the prefix tree's deterministic, unbalanced shape
// as the enabler for intra-operator parallelism: because a key's position
// is fixed, the tree splits into disjoint subtrees by key range, and no
// rebalancing can ever move data between partitions mid-scan.
//
// Execution is morsel-driven (see scheduler.go): the operator's input key
// space is split into many small morsels that idle pool workers steal.
// Each pool worker scans its morsels into a private partial output index,
// and the partials are combined by a parallel partition-wise merge: the
// *output* key space is split into disjoint ranges and all partials are
// merged per range concurrently — safe because a key's position in the
// prefix tree is deterministic, so disjoint output ranges never share a
// subtree. Aggregating outputs merge exactly (the fold is applied again
// on insert); plain outputs concatenate their duplicate rows.
//
// Operators opt in through EnvConfig.Workers > 1; the default (and the
// paper's evaluation mode) stays single-threaded.

// partitionBounds splits the key space [lo, hi] into `parts` contiguous
// chunks and returns the bounds of chunk `part` (0-based). The split is by
// key *space*, matching the subtree partitioning of an unbalanced trie:
// chunk boundaries align with subtree boundaries, never with data. The
// same function produces both the scan morsels and the merge partitions.
func partitionBounds(lo, hi uint64, part, parts int) (uint64, uint64, bool) {
	if lo > hi || parts <= 0 || part >= parts {
		return 0, 0, false
	}
	span := hi - lo + 1 // may overflow to 0 for the full 64-bit space
	if span == 0 {
		// Full key space: split by the top bits instead.
		step := ^uint64(0)/uint64(parts) + 1
		pLo := uint64(part) * step
		pHi := pLo + step - 1
		if part == parts-1 {
			pHi = ^uint64(0)
		}
		return pLo, pHi, true
	}
	step := span / uint64(parts)
	if step == 0 {
		// Fewer keys than morsels: give everything to the first chunk.
		if part == 0 {
			return lo, hi, true
		}
		return 0, 0, false
	}
	pLo := lo + uint64(part)*step
	pHi := pLo + step - 1
	if part == parts-1 {
		pHi = hi
	}
	return pLo, pHi, true
}

// intersectPred clips a selection predicate (nil = everything) to a key
// partition, returning the ranges a worker must scan. The result is never
// nil: a worker whose partition misses every range gets an empty predicate
// (scan nothing), not a nil one (scan everything).
func intersectPred(pred KeyPred, lo, hi uint64) KeyPred {
	if pred == nil {
		return KeyPred{{Lo: lo, Hi: hi}}
	}
	out := KeyPred{}
	for _, r := range pred {
		l, h := max(r.Lo, lo), min(r.Hi, hi)
		if l <= h {
			out = append(out, KeyRange{Lo: l, Hi: h})
		}
	}
	return out
}

// syncScanKeyRange runs the synchronous index scan restricted to keys in
// [lo, hi], using the native skip-scan kernels where the index kinds allow
// them and the iterate-small/probe-large fallback otherwise.
func syncScanKeyRange(a, b Index, lo, hi uint64, visit func(key uint64, va, vb *duplist.List) bool) bool {
	switch ai := a.(type) {
	case ptIndex:
		if bi, isPT := b.(ptIndex); isPT && ai.t.PrefixLen() == bi.t.PrefixLen() && ai.t.KeyBits() == bi.t.KeyBits() {
			return prefixtree.SyncScanRange(ai.t, bi.t, lo, hi, func(la, lb *prefixtree.Leaf) bool {
				return visit(la.Key, &la.Vals, &lb.Vals)
			})
		}
	case kissIndex:
		if bi, isKiss := b.(kissIndex); isKiss {
			return kisstree.SyncScanRange(ai.t, bi.t, lo, hi, func(la, lb *kisstree.Leaf) bool {
				return visit(la.Key, &la.Vals, &lb.Vals)
			})
		}
	}
	// Mixed kinds: range-scan the smaller index's partition, probe the
	// larger one.
	small, large := a, b
	swapped := false
	if b.Keys() < a.Keys() {
		small, large = b, a
		swapped = true
	}
	return small.Range(lo, hi, func(key uint64, vs *duplist.List) bool {
		vl := large.Lookup(key)
		if vl == nil {
			return true
		}
		if swapped {
			return visit(key, vl, vs)
		}
		return visit(key, vs, vl)
	})
}

// syncScanBounds reports the key interval both indexes can contribute to,
// ok == false when either index is empty or the intervals are disjoint.
func syncScanBounds(a, b Index) (uint64, uint64, bool) {
	aLo, aOK := a.Min()
	bLo, bOK := b.Min()
	if !aOK || !bOK {
		return 0, 0, false
	}
	aHi, _ := a.Max()
	bHi, _ := b.Max()
	lo, hi := max(aLo, bLo), min(aHi, bHi)
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// idxBounds reports an index's key interval, ok == false when empty.
func idxBounds(idx Index) (uint64, uint64, bool) {
	lo, ok := idx.Min()
	if !ok {
		return 0, 0, false
	}
	hi, _ := idx.Max()
	return lo, hi, true
}

// keySpaceMax is the largest representable key for a key width.
func keySpaceMax(bits uint) uint64 {
	if bits == 0 || bits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<bits - 1
}

// scanFn feeds the input keys in [lo, hi] through a worker's pipeline
// (whole == true means the morsel covers the full input, letting the
// operator keep its unclipped fast path); boundsFn reports the operator's
// morsel interval (ok == false when there is nothing to scan).
type scanFn = func(p *pipeline, lo, hi uint64, whole bool)
type boundsFn = func() (uint64, uint64, bool)

// runMorsels drives one operator's scan as work-stealing morsels on the
// plan's shared pool. pipe builds a fresh pipeline over the operator's
// inputs; each pool worker gets one (created lazily when the worker claims
// its first non-empty morsel) with a private output index drawing chunks
// from its worker-local pool, so partials stay cache-warm and uncontended.
// scan feeds the input keys in [lo, hi] through the worker's pipeline. The
// per-worker partial outputs are then combined with the parallel
// partition-wise merge. With a single worker the lone partial is the
// output itself and execution degenerates to the paper's single-threaded
// mode.
func runMorsels(ec *ExecContext, spec *OutputSpec, bounds boundsFn, pipe func() (*pipeline, error), scan scanFn) (*IndexedTable, error) {
	sched := ec.scheduler()
	newPart := func(spec *OutputSpec, rec *arena.Recycler) (*pipeline, *IndexedTable, error) {
		p, err := pipe()
		if err != nil {
			return nil, nil, err
		}
		p.rec = rec
		out, err := p.setSink(spec)
		return p, out, err
	}
	empty := func() (*IndexedTable, error) {
		p, out, err := newPart(spec, ec.rec)
		if err != nil {
			return nil, err
		}
		p.finish()
		ec.noteSink(p)
		return out, nil
	}
	lo, hi, ok := bounds()
	if !ok {
		return empty()
	}
	workers := sched.Workers()
	morsels := 1
	if workers > 1 {
		morsels = workers * ec.morselsPerWorker()
	}
	pipes := make([]*pipeline, workers)
	outs := make([]*IndexedTable, workers)
	err := sched.ForEachWorker(morsels, func(w, m int) error {
		if err := ec.err(); err != nil {
			return err // cancelled: stop claiming morsels
		}
		mLo, mHi, ok := partitionBounds(lo, hi, m, morsels)
		if !ok {
			return nil
		}
		p := pipes[w]
		if p == nil {
			specCopy := *spec // private sink per worker partial
			var err error
			p, outs[w], err = newPart(&specCopy, ec.workerRec(w))
			if err != nil {
				return err
			}
			pipes[w] = p
		}
		scan(p, mLo, mHi, morsels == 1)
		if err := ec.err(); err != nil {
			return err // the scan itself may have been aborted mid-morsel
		}
		p.morsels++
		return nil
	})
	if err != nil {
		return nil, err
	}
	var partials []*IndexedTable
	for w, p := range pipes {
		if p == nil {
			continue
		}
		p.finish()
		ec.noteSink(p)
		partials = append(partials, outs[w])
	}
	switch len(partials) {
	case 0:
		return empty()
	case 1:
		// One worker claimed every non-empty morsel: its partial already is
		// the complete output.
		return partials[0], nil
	}
	out, err := mergePartialsParallel(ec, spec, partials)
	if err != nil {
		return nil, err
	}
	// The per-worker partials are dead the moment the merge re-inserted
	// their rows (the output owns copies); with a recycler their chunks
	// immediately feed the next allocations instead of the GC.
	for _, p := range partials {
		p.Release()
	}
	return out, nil
}

// mergeRangeInto folds the [lo, hi] slice of every partial into idx, in
// partial order. Aggregating outputs merge exactly because the fold is
// applied again on insert; plain outputs concatenate their duplicate rows.
// The merge polls ec on the abortTickMask cadence (one check per 1024
// entries) and returns the cancellation error — a large merge range must
// not keep folding rows into an output nobody will read. ec may be nil
// (non-cancellable).
func mergeRangeInto(ec *ExecContext, idx Index, spec *OutputSpec, partials []*IndexedTable, lo, hi uint64) error {
	keys := make([]uint64, 0, DefaultBufferSize)
	rows := make([][]uint64, 0, DefaultBufferSize)
	ticks, cancelled := 0, false
	poll := func() bool { // reports whether the merge must stop
		ticks++
		if ticks&abortTickMask != 0 {
			return cancelled
		}
		if ec != nil && ec.err() != nil {
			cancelled = true
		}
		return cancelled
	}
	flush := func() {
		if len(keys) == 0 {
			return
		}
		if len(spec.Cols) == 0 {
			idx.InsertBatch(keys, nil)
		} else {
			idx.InsertBatch(keys, rows)
		}
		keys, rows = keys[:0], rows[:0]
	}
	for _, p := range partials {
		if cancelled {
			break
		}
		p.Idx.Range(lo, hi, func(k uint64, vals *duplist.List) bool {
			if poll() {
				return false
			}
			if len(spec.Cols) == 0 {
				for n := 0; n < vals.Len(); n++ {
					keys = append(keys, k)
					if len(keys) == cap(keys) {
						flush()
					}
				}
				return true
			}
			vals.Scan(func(row []uint64) bool {
				keys = append(keys, k)
				rows = append(rows, row)
				if len(keys) == cap(keys) {
					flush()
				}
				return true
			})
			return true
		})
		flush() // rows alias partial memory; flush before moving on
	}
	flush()
	if cancelled {
		return ec.err()
	}
	return nil
}

// newOutputIndex creates the output index structure an OutputSpec asks
// for, drawing chunk storage from the plan recycler when one is active.
func newOutputIndex(spec *OutputSpec, rec *arena.Recycler) Index {
	return NewIndex(IndexConfig{
		KeyBits:      spec.Key.TotalBits(),
		PayloadWidth: len(spec.Cols),
		Fold:         spec.Fold,
		Recycler:     rec,
	})
}

// mergePartials is the sequential merge baseline: it folds per-worker
// partial outputs into one final output index by re-insertion, scanning
// the partials one after another over the full key space. ec may be nil
// (non-cancellable); a cancelled merge returns the context's error.
func mergePartials(ec *ExecContext, spec *OutputSpec, partials []*IndexedTable, rec *arena.Recycler) (*IndexedTable, error) {
	idx := newOutputIndex(spec, rec)
	if err := mergeRangeInto(ec, idx, spec, partials, 0, keySpaceMax(spec.Key.TotalBits())); err != nil {
		return nil, err
	}
	return newOutputTable(spec, idx, rec), nil
}

// parallelMergeMinKeys gates the parallel merge: below this many output
// rows the sequential re-insert wins on setup cost.
const parallelMergeMinKeys = 4096

// mergePartialsParallel is the parallel partition-wise merge: it splits
// the output key space into disjoint ranges (one per merge task, aligned
// to prefix-subtree boundaries like the scan morsels) and merges all
// partials per range concurrently on the shared pool, producing a
// range-sharded output index. Disjoint output ranges never touch the same
// subtree, so the per-range merge tasks need no synchronization. The only
// error a merge task can return is the query context's cancellation.
func mergePartialsParallel(ec *ExecContext, spec *OutputSpec, partials []*IndexedTable) (*IndexedTable, error) {
	sched := ec.scheduler()
	total := 0
	for _, p := range partials {
		total += p.Idx.Rows()
	}
	if !sched.parallel() || total < parallelMergeMinKeys {
		return mergePartials(ec, spec, partials, ec.rec)
	}
	var lo, hi uint64
	any := false
	for _, p := range partials {
		l, ok := p.Idx.Min()
		if !ok {
			continue
		}
		h, _ := p.Idx.Max()
		if !any || l < lo {
			lo = l
		}
		if !any || h > hi {
			hi = h
		}
		any = true
	}
	if !any {
		return mergePartials(ec, spec, partials, ec.rec)
	}
	// Two ranges per worker give the claiming loops room to balance ranges
	// of uneven density without fragmenting the output into many shards.
	parts := sched.Workers() * 2
	var los, his []uint64
	for r := 0; r < parts; r++ {
		rLo, rHi, ok := partitionBounds(lo, hi, r, parts)
		if !ok {
			continue
		}
		los = append(los, rLo)
		his = append(his, rHi)
	}
	if len(los) < 2 {
		return mergePartials(ec, spec, partials, ec.rec)
	}
	// Under a memory budget the worker partials are spillable state like
	// any other intermediate: register them with the manager (all or
	// nothing — an unfreezable index kind keeps every partial resident)
	// so a large merge does not hold the full partial population resident.
	// Each merge task then pins every partial for its range's merge.
	var phs []*spill.Handle
	if ec.spill != nil {
		phs = make([]*spill.Handle, len(partials))
		for i, p := range partials {
			fz := freezerOf(p.Idx)
			if fz == nil {
				for _, h := range phs[:i] {
					h.Drop()
				}
				phs = nil
				break
			}
			phs[i] = ec.spill.Register("partial:"+spec.Name, fz, p.Idx.Bytes)
		}
	}
	shards := make([]Index, len(los))
	err := sched.ForEachWorker(len(shards), func(_, r int) error {
		if err := ec.err(); err != nil {
			return err // cancelled: stop claiming merge ranges
		}
		for i, h := range phs {
			if err := h.PinCtx(ec.ctx); err != nil {
				for _, ph := range phs[:i] {
					ph.Unpin()
				}
				return err
			}
		}
		idx := newOutputIndex(spec, ec.rec)
		mergeErr := mergeRangeInto(ec, idx, spec, partials, los[r], his[r])
		for _, h := range phs {
			h.Unpin()
		}
		if mergeErr != nil {
			return mergeErr
		}
		shards[r] = idx
		return nil
	})
	if phs != nil {
		// The partials die with this merge; fold their freeze/thaw
		// traffic into the operator's statistics before dropping them.
		spills, restores := 0, 0
		for _, h := range phs {
			s, r := h.Counts()
			spills, restores = spills+s, restores+r
			h.Drop()
		}
		ec.noteSpill(spills, restores)
	}
	if err != nil {
		return nil, err
	}
	// Extend the edge shards so the sharded index routes the full key
	// space, not just the observed interval.
	los[0] = 0
	his[len(his)-1] = keySpaceMax(spec.Key.TotalBits())
	sh := newShardedIndex(shards, los, his, spec.Key.TotalBits())
	return newOutputTable(spec, sh, ec.rec), nil
}
