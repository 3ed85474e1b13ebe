package core

import (
	"sync/atomic"

	"qppt/internal/arena"
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
// so no two workers ever write one tree. When the scan is done, the later
// workers' partials fold into the first worker's output, one after another
// (foldInto): aggregating outputs fold exactly (the fold is applied again
// on insert), and plain outputs append their duplicate rows in pipeline
// order. Morsel-driven parallelism needs the morsels and that fold, not a
// partitioned output layout.
//
// Operators opt in through EnvConfig.Workers > 1; the default (and the
// paper's evaluation mode) stays single-threaded.

// partitionBounds splits the key space [lo, hi] into `parts` contiguous
// chunks and returns the bounds of chunk `part` (0-based). The split is by
// key *space*, matching the subtree partitioning of an unbalanced trie:
// chunk boundaries align with subtree boundaries, never with data.
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
// parallel region. The later workers' partial outputs then fold into the
// first's, in pipeline order: their trees' rows through foldInto, or, for
// a dense fold, their arrays slot by slot. With a single worker the lone
// partial is the output itself and execution degenerates to the paper's
// single-threaded mode.
//
// The first pipeline is built before any morsel runs, and with it the key
// filters and the stages that leave (buildKeyFilters): every other worker's
// pipeline is a clone that shares them read-only, and the pooled bitmaps and
// value arrays go back to the pool when the operator returns. The first worker to claim a
// non-empty morsel takes that pipeline; when no morsel is non-empty, it
// makes the empty output.
func runMorsels(ec *ExecContext, spec *OutputSpec, bounds boundsFn, pipe func() (*pipeline, error), scan scanFn) (*IndexedTable, error) {
	sched := ec.sched
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
		// Dense arrays fold slot by slot into the first, in pipeline order;
		// the first pipeline's index then takes the result. The other
		// partials' trees never held a row.
		for _, p := range live[1:] {
			acc.absorb(p.snk.dense)
		}
		live[0].snk.emitDense()
	} else if len(partials) > 1 {
		err = foldInto(ec, partials[0].Idx, partials[1:])
	}
	// The later partials are dead once folded; their chunks feed the next
	// allocations instead of the GC.
	for _, p := range partials[1:] {
		p.Release()
	}
	if err != nil {
		return nil, err
	}
	return partials[0], nil
}

// foldInto re-inserts every row of partials into idx, one partial after
// another in key order. Aggregating outputs fold exactly because the fold
// is applied again on insert; plain outputs append each key's duplicate
// rows behind the ones idx holds, so a key's rows keep pipeline order. The
// fold polls ec on the abortTickMask cadence (one check per 1024 entries)
// and returns the cancellation error: a large partial must not keep
// folding rows into an output nobody will read. ec may be nil
// (non-cancellable). The batch buffers come from ec's chunk pool and go
// back at the longest batch, the prefix the pool clears.
func foldInto(ec *ExecContext, idx Index, partials []*IndexedTable) error {
	var rec *arena.Recycler
	var poll abortPoll
	if ec != nil {
		rec, poll.ctx = ec.rec, ec.ctx
	}
	keys := arena.NewChunk[uint64](rec, DefaultBufferSize)
	rows := arena.NewChunk[[]uint64](rec, DefaultBufferSize)
	high := 0
	flush := func() {
		if len(keys) == 0 {
			return
		}
		high = max(high, len(keys))
		idx.InsertBatch(keys, rows)
		keys, rows = keys[:0], rows[:0]
	}
	for _, p := range partials {
		if poll.stopped {
			break
		}
		p.Idx.Iterate(func(lf *Leaf) bool {
			if poll.aborted() {
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
	putScratch(rec, keys, high)
	putScratch(rec, rows, high)
	if poll.stopped {
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
