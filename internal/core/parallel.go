package core

import (
	"sync/atomic"

	"qppt/internal/arena"
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
// plan's shared pool. pipe builds the operator's pipeline; each pool worker
// gets one (taken when the worker claims its first non-empty morsel) with a
// private output index drawing chunks from the Env's pool. scan feeds the
// input keys in [lo, hi] through the worker's pipeline, and the morsel
// then drains every probe stage and the sink: a stage flushes on its own
// only at bufSize keys, so a morsel of fewer driving keys would otherwise
// leave its probes, fan-out and inserts to a serial pass after the
// parallel region. The per-worker partial outputs are then combined with
// the parallel partition-wise merge, or, for a dense fold, the workers'
// arrays fold into the first's. With a single worker the lone
// partial is the output itself and execution degenerates to the paper's
// single-threaded mode.
//
// The first pipeline is built before any morsel runs, and with it the key
// filters and the stages that leave (buildKeyFilters): every other worker's
// pipeline is a clone that shares them read-only, and the pooled bitmaps go
// back to the pool when the operator returns. The first worker to claim a
// non-empty morsel takes that pipeline; when no morsel is non-empty, it
// makes the empty output.
func runMorsels(ec *ExecContext, spec *OutputSpec, bounds boundsFn, pipe func() (*pipeline, error), scan scanFn) (*IndexedTable, error) {
	sched := ec.scheduler()
	first, err := pipe()
	if err != nil {
		return nil, err
	}
	lo, hi, ok := bounds()
	if ok {
		first.buildKeyFilters()
		defer first.parkKeyFilters()
	}
	firstOut, err := first.setSink(spec)
	if err != nil {
		return nil, err
	}
	empty := func() (*IndexedTable, error) {
		first.release()
		ec.noteSink(first)
		return firstOut, nil
	}
	if !ok {
		return empty()
	}
	var firstTaken atomic.Bool
	workers := sched.Workers()
	morsels := 1
	if workers > 1 {
		morsels = workers * morselsPerWorker
	}
	pipes := make([]*pipeline, workers)
	outs := make([]*IndexedTable, workers)
	err = sched.ForEachWorker(morsels, func(w, m int) error {
		if err := ec.err(); err != nil {
			return err // cancelled: stop claiming morsels
		}
		mLo, mHi, ok := partitionBounds(lo, hi, m, morsels)
		if !ok {
			return nil
		}
		p := pipes[w]
		if p == nil {
			p = first
			out := firstOut
			if firstTaken.Swap(true) {
				p = first.clone()
				var err error
				if out, err = p.setSink(spec); err != nil {
					return err
				}
			}
			pipes[w], outs[w] = p, out
		}
		scan(p, mLo, mHi, morsels == 1)
		if err := ec.err(); err != nil {
			return err // the scan itself may have been aborted mid-morsel
		}
		// The morsel finishes its own work: the probes its keys queued, the
		// fan-out and the sink inserts run here, on the worker that claimed
		// it, not after the parallel region.
		p.drain(0)
		p.snk.flush()
		p.morsels++
		return nil
	})
	if err != nil {
		return nil, err
	}
	live, partials := pipes[:0], outs[:0] // compacted in place: w ≥ len(live)
	for w, p := range pipes {
		if p != nil {
			live = append(live, p)
			partials = append(partials, outs[w])
		}
	}
	if len(live) == 0 {
		return empty()
	}
	defer func() {
		for _, p := range live {
			p.release()
			ec.noteSink(p)
		}
	}()
	if acc := live[0].snk.dense; acc != nil {
		// Dense arrays fold slot by slot into the first, in pipeline
		// order, as the tree merge folds the partials; the first
		// pipeline's index then takes the result. The other partials'
		// trees never held a row.
		for i, p := range live[1:] {
			acc.absorb(p.snk.dense)
			partials[i+1].Release()
		}
		live[0].snk.emitDense()
		return partials[0], nil
	}
	if len(partials) == 1 {
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
// (non-cancellable). The batch buffers come from ec's chunk pool and go
// back at the longest batch, the prefix the pool clears.
func mergeRangeInto(ec *ExecContext, idx Index, partials []*IndexedTable, lo, hi uint64) error {
	var rec *arena.Recycler
	if ec != nil {
		rec = ec.rec
	}
	keys := arena.NewChunk[uint64](rec, DefaultBufferSize)
	rows := arena.NewChunk[[]uint64](rec, DefaultBufferSize)
	ticks, cancelled, high := 0, false, 0
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
		high = max(high, len(keys))
		idx.InsertBatch(keys, rows)
		keys, rows = keys[:0], rows[:0]
	}
	for _, p := range partials {
		if cancelled {
			break
		}
		p.Idx.Range(lo, hi, func(lf *Leaf) bool {
			if poll() {
				return false
			}
			lf.Vals.Scan(func(row []uint64) bool {
				keys = append(keys, lf.Key)
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
	putScratch(rec, keys, high)
	putScratch(rec, rows, high)
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
	if err := mergeRangeInto(ec, idx, partials, 0, keySpaceMax(spec.Key.TotalBits())); err != nil {
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
	// any other intermediate: register them with the manager so a large
	// merge does not hold the full partial population resident. Each
	// merge task then pins every partial for its range's merge.
	var phs []*spill.Handle
	if ec.spill != nil {
		phs = make([]*spill.Handle, len(partials))
		for i, p := range partials {
			phs[i] = ec.spill.Register("partial:"+spec.Name, p.Idx, p.Idx.Bytes)
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
		mergeErr := mergeRangeInto(ec, idx, partials, los[r], his[r])
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
