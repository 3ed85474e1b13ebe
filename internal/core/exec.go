package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/spill"
)

// Options are what varies per query: the ablation/oracle switches of the
// paper's demonstrator (Appendix A) plus statistics collection. The
// resources a plan runs on — worker pool, chunk recycler, spill budget —
// belong to the Env and are configured once, in EnvConfig.
type Options struct {
	// BufferSize is the joinbuffer/selectionbuffer size: how many
	// combinations are buffered before a batched index operation is
	// issued. 1 disables batching (scalar tuple-at-a-time); the
	// demonstrator offers 1, 64, 512 and 2048.
	BufferSize int
	// MorselsPerWorker is the morsel fan-out factor: each parallel
	// operator splits its key space into Workers × MorselsPerWorker
	// morsels. More morsels resist skew better but leave more partial
	// outputs to merge. Default DefaultMorselsPerWorker.
	MorselsPerWorker int
	// CollectStats gathers per-operator execution statistics.
	CollectStats bool
	// AdmissionWait is how long the plan waited in an admission queue
	// before Env.Run was entered. Execution ignores it; the queue-aware
	// entry folds it into PlanStats so per-query statistics separate
	// time-queued from time-executing (qppt.Engine sets it from its
	// admission gate).
	AdmissionWait time.Duration
}

// poolWorkers resolves EnvConfig.Workers into the pool size the scheduler
// uses. WorkersAuto (-1) sizes the pool to GOMAXPROCS.
func poolWorkers(workers int) int {
	if workers > 1 {
		return workers
	}
	if workers == WorkersAuto {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// WorkersAuto sizes the worker pool to GOMAXPROCS.
const WorkersAuto = -1

// morselsPerWorker resolves the morsel fan-out factor.
func (o Options) morselsPerWorker() int {
	if o.MorselsPerWorker < 1 {
		return DefaultMorselsPerWorker
	}
	return o.MorselsPerWorker
}

// ExecContext carries execution state for one operator invocation.
type ExecContext struct {
	ctx     context.Context // query context; nil means non-cancellable
	opts    Options
	sched   *Scheduler
	rec     *arena.Recycler   // the Env's chunk pool (nil without recycling)
	wrecs   []*arena.Recycler // worker-local child pools, indexed by pool worker (nil without parallel recycling)
	spill   *spill.Manager    // the Env's spill manager (nil without a memory budget)
	mu      sync.Mutex        // guards opStats under intra-operator parallelism
	opStats *OperatorStats
}

// workerRec returns pool worker w's local chunk pool, falling back to the
// shared Env pool when worker-local pools are not active. Partials built
// from a worker-local pool recycle through it without touching the shared
// pool's lock, keeping the worker's chunk traffic cache-warm.
func (ec *ExecContext) workerRec(w int) *arena.Recycler {
	if w >= 0 && w < len(ec.wrecs) && ec.wrecs[w] != nil {
		return ec.wrecs[w]
	}
	return ec.rec
}

// noteSpill folds freeze/thaw events of operator-owned transient state
// (the registered worker partials of a large merge) into the operator
// statistics.
func (ec *ExecContext) noteSpill(spills, restores int) {
	if ec.opStats == nil || (spills == 0 && restores == 0) {
		return
	}
	ec.mu.Lock()
	ec.opStats.Spills += spills
	ec.opStats.Restores += restores
	ec.mu.Unlock()
}

// err reports the query context's cancellation state (nil when the
// context cannot be cancelled). Morsel bodies and merge tasks poll it so
// a cancelled query stops claiming work promptly.
func (ec *ExecContext) err() error {
	if ec.ctx == nil {
		return nil
	}
	return ec.ctx.Err()
}

func (ec *ExecContext) bufferSize() int {
	if ec.opts.BufferSize < 1 {
		return DefaultBufferSize
	}
	return ec.opts.BufferSize
}

// scheduler returns the plan's shared pool, creating a serial one for
// contexts constructed outside Env.Run (tests, ad-hoc operator calls).
func (ec *ExecContext) scheduler() *Scheduler {
	if ec.sched == nil {
		ec.sched = NewScheduler(1)
	}
	return ec.sched
}

func (ec *ExecContext) morselsPerWorker() int { return ec.opts.morselsPerWorker() }

// DefaultBufferSize is the joinbuffer size used when Options does not set
// one; it matches the middle setting of the paper's demonstrator.
const DefaultBufferSize = 512

// noteSink folds one worker pipeline's counters into the operator
// statistics: each pipeline is one pool worker's partial, so the call also
// counts the workers and morsels that actually executed.
func (ec *ExecContext) noteSink(p *pipeline) {
	if ec.opStats == nil {
		return
	}
	ec.mu.Lock()
	ec.opStats.IndexTime += p.snk.insertTime
	ec.opStats.TuplesIndexed += p.snk.inserted
	ec.opStats.ProbeLookups += p.lookups
	ec.opStats.Workers++
	ec.opStats.Morsels += p.morsels
	ec.mu.Unlock()
}

// OperatorStats are the per-operator execution statistics the demonstrator
// visualizes (Appendix A): total time, the portion spent indexing the
// output, input/output sizes and index types.
type OperatorStats struct {
	Label string
	// Time is the operator's total execution time; MaterializeTime is
	// the portion spent producing combinations (Time − IndexTime), and
	// IndexTime the portion spent inserting into the output index.
	Time            time.Duration
	MaterializeTime time.Duration
	IndexTime       time.Duration
	// TuplesIndexed counts rows inserted into the output index (before
	// aggregation folds them); ProbeLookups counts assisting-index
	// lookups issued through the joinbuffer.
	TuplesIndexed int
	ProbeLookups  int
	// Deprecated: read by benchmark/trace.go; nothing in the engine writes or reads it.
	TuplesStreamed int
	// Deprecated: read by benchmark/trace.go; nothing in the engine writes or reads it.
	ProbeBatches int
	// Deprecated: read by benchmark/trace.go; nothing in the engine writes or reads it.
	AvgBatchFill float64
	// Deprecated: read by benchmark/trace.go; nothing in the engine writes or reads it.
	KernelDescents int
	// Deprecated: read by benchmark/trace.go; nothing in the engine writes or reads it.
	ScalarDescents int
	// Workers is the number of pool workers that contributed a partial
	// output; Morsels the number of key-range morsels they processed
	// (1/1 for serial execution).
	Workers int
	Morsels int
	// OutRows/OutKeys/OutBytes describe the output indexed table.
	OutRows  int
	OutKeys  int
	OutBytes int
	// Spills/Restores count how often this operator's output index was
	// frozen to disk and thawed back under EnvConfig.MemBudget.
	Spills   int
	Restores int
}

// PlanStats aggregates the statistics of one plan execution in
// post-order (children before parents), plus the parallelism
// configuration the plan ran with, so benchmark output records it.
type PlanStats struct {
	Ops   []OperatorStats
	Total time.Duration
	// Workers is the shared pool size; MorselsPerWorker the morsel
	// fan-out factor (1/1 for serial execution).
	Workers          int
	MorselsPerWorker int
	// MemBudget echoes the governing budget (0 = unlimited); the
	// remaining fields aggregate the spill manager's activity:
	// freeze/thaw event counts, the bytes they moved, and the peak
	// tracked residency of the plan's intermediate indexes. The manager
	// is the Env's, so the counters are this plan's deltas — exact when
	// the plan runs alone, approximate under concurrent plans — and
	// PeakResident is how much the plan raised the Env's high-water mark
	// (0 when it stayed under the prior peak).
	MemBudget    int64
	Spills       int
	Restores     int
	SpillBytes   int64
	RestoreBytes int64
	PeakResident int64
	// SpillBytesWritten counts the file bytes the freezes wrote, beside the
	// resident bytes (SpillBytes) they released.
	SpillBytesWritten int64
	// RestoreBytesRead counts the spill-file bytes the restores read.
	RestoreBytesRead int64
	// ChunksRecycled/ChunksReused/RecycleSavedBytes are this plan's share
	// of the Env recycler's traffic (EnvConfig.Recycle): chunks parked in
	// the pool, chunk allocations served from it, and the heap allocation
	// those reuses avoided.
	ChunksRecycled    int
	ChunksReused      int
	RecycleSavedBytes int64
	// Deprecated: read by benchmark/trace.go; nothing in the engine writes or reads it.
	FusedEdges int
	// AdmissionWait is how long the plan sat in the engine's admission
	// queue before execution began (0 when the plan was admitted
	// immediately or no gate is configured). Total does not include it.
	AdmissionWait time.Duration
}

func (ps *PlanStats) String() string {
	if ps == nil {
		return "(no stats)"
	}
	s := fmt.Sprintf("total %v (pool: %d workers × %d morsels)\n", ps.Total, ps.Workers, ps.MorselsPerWorker)
	if ps.AdmissionWait > 0 {
		s += fmt.Sprintf("admission: queued %v before execution\n", ps.AdmissionWait.Round(time.Microsecond))
	}
	if ps.MemBudget > 0 {
		s += fmt.Sprintf("membudget %s: %d spills (%s out, %s written), %d restores (%s in, %s read), peak resident %s\n",
			spill.FormatBytes(ps.MemBudget), ps.Spills, spill.FormatBytes(ps.SpillBytes),
			spill.FormatBytes(ps.SpillBytesWritten), ps.Restores, spill.FormatBytes(ps.RestoreBytes), spill.FormatBytes(ps.RestoreBytesRead),
			spill.FormatBytes(ps.PeakResident))
	}
	if ps.ChunksRecycled > 0 || ps.ChunksReused > 0 {
		s += fmt.Sprintf("recycler: %d chunks parked, %d reused (%s of allocation avoided)\n",
			ps.ChunksRecycled, ps.ChunksReused, spill.FormatBytes(ps.RecycleSavedBytes))
	}
	for _, op := range ps.Ops {
		s += fmt.Sprintf("  %-24s %10v (index %8v) out: %d rows, %d keys, %d B",
			op.Label, op.Time.Round(time.Microsecond), op.IndexTime.Round(time.Microsecond),
			op.OutRows, op.OutKeys, op.OutBytes)
		if op.Workers > 1 {
			s += fmt.Sprintf("  [%d workers, %d morsels]", op.Workers, op.Morsels)
		}
		if op.Spills > 0 || op.Restores > 0 {
			s += fmt.Sprintf("  [spilled ×%d, restored ×%d]", op.Spills, op.Restores)
		}
		s += "\n"
	}
	return s
}

// A Plan is an executable QPPT operator DAG; Env.Run executes it.
type Plan struct {
	Root Operator
}

// Run executes the plan on the environment's resources and returns the
// final indexed table (the query result index, already grouped and sorted
// by its key) plus statistics when requested. It is the only way a plan
// runs: the worker pool is shared with every other plan on the Env,
// dropped intermediates' chunks park in its recycler, and intermediates
// register with its spill manager. Under a memory budget, eviction happens
// at operator boundaries and only for what a later operator reads: an
// operator's inputs are pinned as one set, inputs whose last consumer just
// ran are dropped before its output is registered (they never cost a
// freeze), and the budget is balanced once per boundary. The plan's result
// never enters the spill manager, so it is never spilled and stays valid
// however long it outlives the plan (and the Env); a caller that is done
// with it hands its chunks back to the pool with IndexedTable.Release.
//
// Cancelling ctx unwinds the plan promptly: morsel loops, merge tasks and
// operator scans stop at the next batch boundary, waits on spill
// freeze/thaw transitions return early, pins are released, and — once
// every in-flight worker has drained — Run returns ctx.Err() with no
// goroutines, pins or spill files left behind.
func (env *Env) Run(ctx context.Context, pl *Plan, opts Options) (*IndexedTable, *PlanStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ex := &executor{
		ctx:   ctx,
		root:  pl.Root,
		opts:  opts,
		sched: env.sched,
		rec:   env.rec,
		spill: env.spill,
		memo:  make(map[Operator]*memoEntry),
	}
	if ex.rec != nil || ex.spill != nil {
		// Consumer counting drives chunk recycling and the early deletion
		// of spill files: an intermediate nobody will read again should
		// neither sit in the chunk pool's way nor keep a snapshot on disk
		// until the plan ends.
		ex.uses = make(map[Operator]int)
		countUses(pl.Root, ex.uses)
		ex.uses[pl.Root]++ // the caller consumes the result; never drop it
	}
	if ex.spill != nil {
		ex.handles = make(map[*IndexedTable]*spill.Handle)
		ex.doneOut = make(map[Operator]*IndexedTable)
	}
	if ex.rec != nil && ex.sched.parallel() {
		// Worker-local chunk pools: each pool worker recycles its partial
		// indexes through a private child pool, drained back into the
		// shared pool when the plan finishes.
		ex.wrecs = make([]*arena.Recycler, ex.sched.Workers())
		for i := range ex.wrecs {
			ex.wrecs[i] = ex.rec.Local()
		}
	}
	// The manager and recycler accumulate across plans; statistics report
	// this plan's activity as the counter delta (exact when the plan runs
	// alone, approximate under concurrent plans).
	var stats *PlanStats
	var spill0 spill.Stats
	var rec0 arena.RecyclerStats
	if opts.CollectStats {
		stats = &PlanStats{Workers: ex.sched.Workers(), MorselsPerWorker: 1,
			AdmissionWait: opts.AdmissionWait}
		if ex.sched.parallel() {
			stats.MorselsPerWorker = opts.morselsPerWorker()
		}
		if ex.spill != nil {
			spill0 = ex.spill.Stats()
			stats.MemBudget = ex.spill.Budget()
		}
		rec0 = ex.rec.Stats()
	}
	t0 := time.Now()
	out, err := ex.resolve(pl.Root, stats)
	if err == nil {
		err = ctx.Err() // a cancelled plan must not report success
	}
	for _, wr := range ex.wrecs {
		wr.Drain() // fold the worker-local pools back into the shared pool
	}
	if ex.spill != nil {
		// The manager outlives this plan: what an aborted plan still owns
		// must leave with it. (A finished plan has dropped every intermediate
		// and never registered its result; Drop is idempotent.)
		ex.mu.Lock()
		leftover := make([]*spill.Handle, 0, len(ex.handles))
		for _, h := range ex.handles {
			leftover = append(leftover, h)
		}
		ex.mu.Unlock()
		for _, h := range leftover {
			h.Drop()
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if stats != nil {
		if ex.spill != nil {
			ms := ex.spill.Stats()
			stats.Spills, stats.Restores = ms.Spills-spill0.Spills, ms.Restores-spill0.Restores
			stats.SpillBytes, stats.RestoreBytes = ms.SpillBytes-spill0.SpillBytes, ms.RestoreBytes-spill0.RestoreBytes
			stats.SpillBytesWritten = ms.SpillBytesWritten - spill0.SpillBytesWritten
			stats.RestoreBytesRead = ms.RestoreBytesRead - spill0.RestoreBytesRead
			// Peak is a high-water mark: report how much this plan raised
			// it (0 = stayed under the Env's prior peak), consistent with
			// the sibling delta counters.
			stats.PeakResident = ms.Peak - spill0.Peak
			for _, ref := range ex.spillOps {
				// Add (not assign): merge-partial freeze/thaw traffic is
				// already folded in through noteSpill.
				s, r := ref.h.Counts()
				stats.Ops[ref.op].Spills += s
				stats.Ops[ref.op].Restores += r
			}
		}
		if ex.rec != nil {
			rs := ex.rec.Stats()
			stats.ChunksRecycled, stats.ChunksReused = rs.Recycled-rec0.Recycled, rs.Reused-rec0.Reused
			stats.RecycleSavedBytes = rs.SavedBytes - rec0.SavedBytes
		}
		stats.Total = time.Since(t0)
	}
	return out, stats, nil
}

// countUses walks the plan DAG once and counts, per operator, how many
// parent edges consume its output. The executor decrements the count as
// parents finish; at zero the intermediate is dropped and its chunks
// recycled.
func countUses(op Operator, uses map[Operator]int) {
	for _, c := range op.Children() {
		uses[c]++
		if uses[c] == 1 {
			countUses(c, uses)
		}
	}
}

// executor memoizes operator outputs so DAG-shaped plans run each operator
// once, and resolves independent children concurrently on the Env's
// shared worker pool. With a memory budget every non-base operator output
// is registered with the Env's spill manager for LRU eviction, and inputs
// are pinned resident around each operator run.
type executor struct {
	ctx   context.Context
	root  Operator // its output is the caller's: never registered, never dropped
	opts  Options
	sched *Scheduler
	mu    sync.Mutex
	memo  map[Operator]*memoEntry

	// rec and uses implement chunk recycling (EnvConfig.Recycle): uses
	// holds the remaining consumer count per operator output, and rec
	// receives the chunks of outputs whose count reaches zero. wrecs are
	// the worker-local child pools (one per pool worker) that front rec
	// under parallel execution; they are drained back when the plan ends.
	rec   *arena.Recycler
	wrecs []*arena.Recycler
	uses  map[Operator]int

	spill    *spill.Manager
	handles  map[*IndexedTable]*spill.Handle // intermediate table → spill handle
	doneOut  map[Operator]*IndexedTable      // resolved outputs, for locality-aware task ordering
	spillOps []spillOpRef
}

// frostScore counts how many of op's already-resolved inputs are frozen
// on disk: the thaw cost a worker pays before op's subtree makes progress.
func (ex *executor) frostScore(op Operator) int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	n := 0
	for _, c := range op.Children() {
		t := ex.doneOut[c]
		if t == nil {
			continue
		}
		if h := ex.handles[t]; h != nil && h.Frozen() {
			n++
		}
	}
	return n
}

// frostOrder returns a stable task order for resolving the given subtrees
// concurrently: subtrees whose already-resolved inputs are resident start
// before ones that must first thaw frozen intermediates, so the pool works
// on warm data while cold restores queue behind it (locality-aware
// scheduling). Without a spill manager everything is resident and the
// order is the identity.
func (ex *executor) frostOrder(ops []Operator) []int {
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	if ex.spill == nil || len(ops) < 2 {
		return order
	}
	scores := make([]int, len(ops))
	for i, c := range ops {
		scores[i] = ex.frostScore(c)
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	return order
}

// spillOpRef links a spill handle to its operator's slot in PlanStats.Ops
// so the freeze/thaw counts can be filled in when the plan finishes.
type spillOpRef struct {
	h  *spill.Handle
	op int
}

// handleOf returns the spill handle of a registered intermediate, nil for
// base tables and unspillable index kinds.
func (ex *executor) handleOf(t *IndexedTable) *spill.Handle {
	if ex.spill == nil || t == nil {
		return nil
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.handles[t]
}

// releaseInput decrements an operator output's remaining-consumer count
// and, at zero, drops the intermediate: its spill state (file, mapping)
// is removed so the spill directory holds only snapshots a consumer may
// still need, and — with EnvConfig.Recycle — its chunk storage is parked in
// the Env pool. Base tables are never dropped; the plan root carries an
// extra use so the result survives. Drop precedes Recycle: Drop waits out
// any in-flight freeze/thaw of the entry and releases the file mapping,
// after which recycling only touches heap chunks (mapped ones are
// skipped).
func (ex *executor) releaseInput(op Operator, t *IndexedTable) {
	if t == nil {
		return
	}
	if _, isBase := op.(*Base); isBase {
		return
	}
	ex.mu.Lock()
	ex.uses[op]--
	done := ex.uses[op] == 0
	var h *spill.Handle
	if done && ex.handles != nil {
		h = ex.handles[t]
	}
	ex.mu.Unlock()
	if !done {
		return
	}
	if h != nil {
		h.Drop()
	}
	t.Release()
}

type memoEntry struct {
	once sync.Once
	out  *IndexedTable
	st   *OperatorStats
	err  error
}

func (ex *executor) entry(op Operator) *memoEntry {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	e, ok := ex.memo[op]
	if !ok {
		e = &memoEntry{}
		ex.memo[op] = e
	}
	return e
}

// pinInputs is the operator prologue: it restores — and protects from
// eviction — every spilled input the operator is about to scan or probe,
// as one set (spill.Manager.PinSet), so thawing one input never evicts
// another the same operator reads. An intermediate read on several
// ordinals is pinned once. The returned set stays pinned until finishOp;
// on error nothing stays pinned.
func (ex *executor) pinInputs(inputs []*IndexedTable) ([]*spill.Handle, error) {
	if ex.spill == nil {
		return nil, nil
	}
	var set []*spill.Handle
	for _, in := range inputs {
		// nil: base table or unspillable kind.
		if h := ex.handleOf(in); h != nil && !slices.Contains(set, h) {
			set = append(set, h)
		}
	}
	if err := ex.spill.PinSet(ex.ctx, set); err != nil {
		return nil, err
	}
	return set, nil
}

// finishOp is the operator epilogue: op ran over inputs[i] = the output of
// children[i], with pinned still held. Order
// is the point (package spill): inputs whose last consumer this was are
// dropped first — no I/O, spill state deleted, chunks back in the pool —
// then the rest are unpinned, then the output is registered and the budget
// balanced once. Base tables stay out (the budget governs what the plan
// adds), and so does the plan root: the caller owns it, and an entry nobody
// pins again could only cost a freeze and the thaw that undoes it.
func (ex *executor) finishOp(op Operator, e *memoEntry, pinned []*spill.Handle, children []Operator, inputs []*IndexedTable) {
	if ex.uses != nil && e.err == nil {
		for i, c := range children {
			ex.releaseInput(c, inputs[i])
		}
	}
	if ex.spill == nil {
		return
	}
	ex.spill.UnpinSet(pinned)
	if _, isBase := op.(*Base); isBase || op == ex.root || e.err != nil {
		return
	}
	if fz := freezerOf(e.out.Idx); fz != nil {
		h := ex.spill.Register(op.Label(), fz, e.out.Idx.Bytes)
		ex.mu.Lock()
		ex.doneOut[op] = e.out
		ex.handles[e.out] = h
		ex.mu.Unlock()
	}
}

func (ex *executor) resolve(op Operator, stats *PlanStats) (*IndexedTable, error) {
	e := ex.entry(op)
	e.once.Do(func() {
		if err := ex.ctx.Err(); err != nil {
			e.err = err // cancelled: don't start another operator
			return
		}
		children := op.Children()
		inputs := make([]*IndexedTable, len(children))
		if ex.sched.parallel() && len(children) > 1 {
			// Independent subtrees resolve concurrently on the shared
			// pool; Fork runs on pool workers when they are idle and
			// inline otherwise, so the goroutine count stays bounded by
			// the pool size however deep the plan nests. Subtrees with
			// resident inputs are issued before ones that must thaw.
			tasks := make([]func() error, len(children))
			for t, oi := range ex.frostOrder(children) {
				i, c := oi, children[oi]
				tasks[t] = func() error {
					in, err := ex.resolve(c, stats)
					inputs[i] = in
					return err
				}
			}
			if err := ex.sched.Fork(tasks...); err != nil {
				e.err = err
				return
			}
		} else {
			for i, c := range children {
				in, err := ex.resolve(c, stats)
				if err != nil {
					e.err = err
					return
				}
				inputs[i] = in
			}
		}
		pinned, err := ex.pinInputs(inputs)
		if err != nil {
			e.err = err
			return
		}
		ec := &ExecContext{ctx: ex.ctx, opts: ex.opts, sched: ex.sched,
			rec: ex.rec, wrecs: ex.wrecs, spill: ex.spill}
		if stats != nil {
			if _, isBase := op.(*Base); !isBase {
				e.st = &OperatorStats{Label: op.Label()}
				ec.opStats = e.st
			}
		}
		t0 := time.Now()
		e.out, e.err = op.run(ec, inputs)
		if e.err == nil {
			// A scan aborted by cancellation can surface a partial output;
			// never memoize it as a valid result.
			e.err = ex.ctx.Err()
		}
		if e.st != nil && e.err == nil {
			e.st.Time = time.Since(t0)
			e.st.MaterializeTime = e.st.Time - e.st.IndexTime
			e.st.OutRows = e.out.Rows()
			e.st.OutKeys = e.out.Keys()
			e.st.OutBytes = e.out.Idx.Bytes()
		}
		ex.finishOp(op, e, pinned, children, inputs)
	})
	if e.err == nil && stats != nil {
		// Append post-order, exactly once per operator (two consumers of a
		// shared operator may both arrive here).
		ex.mu.Lock()
		if e.st != nil {
			stats.Ops = append(stats.Ops, *e.st)
			e.st = nil
			if h := ex.handles[e.out]; h != nil {
				ex.spillOps = append(ex.spillOps, spillOpRef{h: h, op: len(stats.Ops) - 1})
			}
		}
		ex.mu.Unlock()
	}
	return e.out, e.err
}

// A Result is the client-side materialization of a query result index:
// one row per index key, the key fields first, the payload columns after.
// Because the result index is a prefix tree, rows arrive already sorted by
// the key fields (paper Section 3: "the resulting index ... is already
// sorted").
type Result struct {
	Attrs []string
	Rows  [][]uint64
}

// Extract materializes an indexed table into a Result in key order.
func Extract(t *IndexedTable) *Result {
	sel := make([]int, len(t.Key.Attrs)+len(t.Cols))
	for i := range sel {
		sel[i] = i
	}
	return &Result{
		Attrs: append(append([]string{}, t.Key.Attrs...), t.Cols...),
		Rows:  Project(t, sel),
	}
}

// Project materializes an indexed table in key order, one row per tuple,
// in a single index walk. sel picks each output row's values by position
// in the tuple — the key fields first, the payload columns after, the
// layout of Result — so a caller that wants another column order (SQL's
// SELECT-item order) gets it without a second pass. The rows are caller-
// owned copies carved from one flat backing array: two allocations for the
// whole result instead of one per row, and nothing aliases the index, so
// the table may be released right after.
func Project(t *IndexedTable, sel []int) [][]uint64 {
	n, w := t.Rows(), len(sel)
	flat := make([]uint64, 0, n*w)
	rows := make([][]uint64, 0, n)
	comp := t.Key.Composer()
	nk := len(t.Key.Attrs)
	var fields []uint64
	t.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
		if nk > 1 {
			fields = comp.Split(k, fields[:0])
		}
		emit := func(payload []uint64) bool {
			start := len(flat)
			for _, c := range sel {
				switch {
				case c >= nk:
					flat = append(flat, payload[c-nk])
				case nk == 1:
					flat = append(flat, k)
				default:
					flat = append(flat, fields[c])
				}
			}
			rows = append(rows, flat[start:len(flat):len(flat)])
			return true
		}
		if len(t.Cols) == 0 {
			for i := 0; i < vals.Len(); i++ {
				emit(nil)
			}
			return true
		}
		vals.Scan(emit)
		return true
	})
	return rows
}
