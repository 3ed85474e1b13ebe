package core

import (
	"context"
	"fmt"
	"time"

	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/key"
)

// The combination-context pipeline is the shared execution kernel of all
// composed operators (paper Section 4). A *combination* is one candidate
// output tuple: the values of the current main-index match plus the payload
// rows of every assisting index probed so far, laid out as one flat context
// (ctxLayout). Combinations flow through a sequence of probe stages (one per
// probed index) into the sink, which materializes the output key and payload
// row and inserts them into the output index.
//
// Every stage works on batches: probe stages issue batched index lookups
// through the joinbuffer/selectionbuffer, and the sink issues batched index
// inserts (paper Sections 2.3 and 4.2). Buffer size 1 degenerates to scalar
// tuple-at-a-time processing, which is exactly the knob the paper's
// demonstrator exposes.
//
// The joinbuffer is copy-free. A combination lives in one slot of the
// pipeline's flat slot chunk, and a stage's queue is a selection vector of
// slot numbers plus the probe keys. A probe hit with one row writes the
// stage's segment where the combination already sits and queues the same
// slot for the next stage; a lookup miss leaves it out. Only a hit with
// several rows (a fan-out) needs more slots. When the next stage probes
// with a column of the fanning-out rows and has no residual at its entry —
// the first assist of a star join, which probes with a foreign key of the
// fact row — the next stage is late: it queues just (parent slot, row, key)
// and copies the parent and the row into a slot of its own only for a probe
// hit (late materialization). Stage s owns slots [s·bufSize,
// (s+1)·bufSize): the entry copies base combinations into stage 0's, and
// stage s−1's hits take stage s's. A full region is reclaimed by draining
// the stages from s on, which moves every combination that still
// references it into the sink.
//
// Filters at the fan-out: a key filter (keyFilter, an exact bitmap of an
// index's keys) is tested on the rows of the stage whose column holds the
// probe key, before a row is queued, copied or fed, so a key the probed
// index lacks costs one bit test, never a queue entry, a descent or a
// visit. Every assist that probes with a column of the fact rows — stage
// 0's, the main probe's — is tested there, in assist order; any other
// stage only when it is late, on its previous stage's rows. An
// assist that carries no column and holds one row per key needs nothing
// but that test: it leaves the pipeline, and the sink writes its key, the
// probe key, into the combination.
//
// Every stage handles its queue in arrival order and emits a combination's
// rows in list order, so the sink sees the nested-loop order at every
// buffer size, and the output index is the same.

// ctxLayout assigns each operator input a segment of the flat combination
// context: first the input's key fields, then its payload columns.
type ctxLayout struct {
	inputs []*IndexedTable
	starts []int // segment start per input
	width  int
}

func newCtxLayout(inputs ...*IndexedTable) ctxLayout {
	l := ctxLayout{inputs: inputs, starts: make([]int, len(inputs))}
	for i, in := range inputs {
		l.starts[i] = l.width
		l.width += len(in.Key.Attrs) + len(in.Cols)
	}
	return l
}

// keyOff returns the ctx offset of field f of input i's key.
func (l ctxLayout) keyOff(i, f int) int { return l.starts[i] + f }

// colOff returns the ctx offset of payload column c of input i.
func (l ctxLayout) colOff(i, c int) int { return l.starts[i] + len(l.inputs[i].Key.Attrs) + c }

// resolve compiles an attribute reference to a ctx offset.
func (l ctxLayout) resolve(r Ref) (int, error) {
	if r.Input < 0 || r.Input >= len(l.inputs) {
		return 0, fmt.Errorf("core: ref input %d out of range", r.Input)
	}
	in := l.inputs[r.Input]
	if f := in.Key.Field(r.Attr); f >= 0 {
		return l.keyOff(r.Input, f), nil
	}
	if c := in.Col(r.Attr); c >= 0 {
		return l.colOff(r.Input, c), nil
	}
	return 0, fmt.Errorf("core: attribute %q not available from input %d (%s)", r.Attr, r.Input, in.Name)
}

// fillKey writes the (possibly composed) key of input i into its ctx key
// slots.
func (l ctxLayout) fillKey(ctx []uint64, i int, k uint64, comp *key.Composer) {
	n := len(l.inputs[i].Key.Attrs)
	switch n {
	case 0:
	case 1:
		ctx[l.starts[i]] = k
	default:
		for f := 0; f < n; f++ {
			ctx[l.starts[i]+f] = comp.Field(k, f)
		}
	}
}

// fillRow writes a payload row of input i into its ctx slots.
func (l ctxLayout) fillRow(ctx []uint64, i int, row []uint64) {
	copy(ctx[l.starts[i]+len(l.inputs[i].Key.Attrs):], row)
}

// A probeStage joins one probed index into the combination (paper Section
// 4.2): the probe key is read from the context, looked up in the index
// (batched through the joinbuffer), and each returned row extends the
// combination; a miss removes the combination.
type probeStage struct {
	table    *IndexedTable
	input    int // this stage's input ordinal in the layout
	probeOff int // ctx offset holding the probe key
	comp     *key.Composer

	// late is set when the probe key is column lateCol of the previous
	// stage's rows (input prevInput) and no filter sits at this stage's
	// entry: a fan-out of the previous stage then queues its rows here
	// unmaterialized.
	late      bool
	lateCol   int
	prevInput int
	// fan holds the key filters of later stages that probe with columns of
	// this stage's rows: a row one of them rejects is dropped before it
	// goes on. Every worker pipeline of one operator execution shares it
	// read-only.
	fan []fanTest

	// The joinbuffer: the selection vector of queued combination slots,
	// their probe keys and, on a late stage, the previous stage's row each
	// entry still has to take (nil when its slot already holds it). All
	// three are pool chunks of bufSize; high is the longest queue any
	// flush found, the prefix release hands back.
	sel   []int32
	keys  []uint64
	rows  [][]uint64
	high  int
	used  int                   // slots of this stage's region handed out
	visit func(j int, lf *Leaf) // the LookupBatch visitor, built once
}

// A fanTest drops a row whose column col is not a key of a later stage's
// index.
type fanTest struct {
	col int
	f   *keyFilter
}

// A keyFill copies the probe key at ctx offset src into a left-out stage's
// key segment at dst.
type keyFill struct{ dst, src int }

// A sink materializes combinations into the output index: it assembles the
// output key (composed if multi-attribute) and payload row, then issues
// batched inserts.
type sink struct {
	out      Index
	keyOffs  []int
	comp     *key.Composer
	exprs    []compiledExpr
	rowWidth int
	// fills write the keys of the stages that left the pipeline, before
	// anything reads the combination.
	fills []keyFill

	// keys/rows/arena are the insert buffer: up to bufSize assembled
	// (key, row) pairs, the rows carved from arena, drawn from the
	// pipeline's chunk pool.
	keys      []uint64
	rows      [][]uint64
	arena     []uint64
	fieldsBuf []uint64

	// high is the most combinations any one flush found buffered: the
	// written prefix of the insert buffer, which is all release hands the
	// pool to clear.
	high int

	insertTime time.Duration
	inserted   int
}

type compiledExpr struct {
	off int
	fn  func(ctx []uint64) uint64
}

// A pipeline ties the stages together for one operator execution. Under
// morsel-driven parallelism each pool worker owns one pipeline (its
// private partial output), scans all the morsels it claims through it,
// and the sink accounting — insert time, tuples indexed, probe lookups,
// morsels processed — is folded into the operator statistics per worker
// by ExecContext.noteSink.
type pipeline struct {
	layout  ctxLayout
	qctx    context.Context // query context; scans poll it for cancellation
	ticks   int             // feed counter driving the periodic ctx poll
	stopped bool            // latched once qctx is cancelled
	rec     *arena.Recycler // plan chunk pool for the output index
	// residual, if set, drops base combinations before stage 0;
	// mainResidual drops combinations entering stage 1 (the sink when
	// there is no stage 1), right after the probe that makes the main
	// input's attributes available.
	residual     func(ctx []uint64) bool
	mainResidual func(ctx []uint64) bool
	// stages are the probe stages: stage 0 is the main probe, and its
	// rows are the fact rows every assist's filter is tested on.
	stages []*probeStage
	// fills are the sink's, decided with the filters and shared like
	// them; owned are the filter bitmaps drawn from the pool.
	fills    []keyFill
	owned    [][]uint64
	snk      *sink
	bufSize  int
	lookups  int // probe-stage lookups issued (stats)
	filtered int // probe keys or fan-out rows a key filter dropped without a lookup (stats)
	morsels  int // key-range morsels scanned through this pipeline (stats)

	// slots holds every combination in flight, layout.width words each:
	// stage s owns slots [s·bufSize, (s+1)·bufSize). slotHigh is the
	// written prefix in slots, the part release hands the pool to clear.
	slots    []uint64
	slotHigh int
}

// filter returns the combination filter at the entry of stage i ≥ 1 (i ==
// len(stages): the sink), or nil.
func (p *pipeline) filter(i int) func(ctx []uint64) bool {
	if i == 1 {
		return p.mainResidual
	}
	return nil
}

func newPipeline(ec *ExecContext, layout ctxLayout) *pipeline {
	bufSize := ec.bufferSize()
	if bufSize < 1 {
		bufSize = 1
	}
	return &pipeline{layout: layout, qctx: ec.ctx, bufSize: bufSize, rec: ec.rec}
}

// abortTickMask throttles the cancellation poll to one ctx.Err() call per
// 1024 fed combinations — cheap against the index work per combination,
// frequent enough that even a serial whole-input scan unwinds within a
// fraction of a millisecond of cancellation.
const abortTickMask = 1<<10 - 1

// aborted polls the query context (throttled) and latches its
// cancellation; scan loops call it per visited key or fed combination and
// stop early once it reports true. The produced partial output is
// discarded by the caller — runMorsels re-checks the context after every
// morsel and surfaces ctx.Err().
func (p *pipeline) aborted() bool {
	if p.stopped {
		return true
	}
	if p.qctx == nil {
		return false
	}
	p.ticks++
	if p.ticks&abortTickMask != 0 {
		return false
	}
	if p.qctx.Err() != nil {
		p.stopped = true
	}
	return p.stopped
}

// addProbe appends a probe stage for input `input`, probing with the
// attribute at ctx offset probeOff.
func (p *pipeline) addProbe(input int, probeOff int) {
	p.stages = append(p.stages, &probeStage{
		table:    p.layout.inputs[input],
		input:    input,
		probeOff: probeOff,
		comp:     p.layout.inputs[input].Key.Composer(),
	})
}

// clone returns a pipeline for another worker of the same operator
// execution: p's layout, residuals, stages and filters, with buffers of its
// own once setSink lays them out.
func (p *pipeline) clone() *pipeline {
	q := &pipeline{layout: p.layout, qctx: p.qctx, rec: p.rec, bufSize: p.bufSize,
		residual: p.residual, mainResidual: p.mainResidual, fills: p.fills}
	for _, st := range p.stages {
		q.stages = append(q.stages, &probeStage{table: st.table, input: st.input, probeOff: st.probeOff, comp: st.comp, fan: st.fan})
	}
	return q
}

// setSink compiles the output spec's key refs and column expressions
// against the layout and creates the output index.
func (p *pipeline) setSink(spec *OutputSpec) (*IndexedTable, error) {
	if len(spec.KeyRefs) != len(spec.Key.Attrs) {
		return nil, fmt.Errorf("core: output %q: %d key refs for %d key attrs", spec.Name, len(spec.KeyRefs), len(spec.Key.Attrs))
	}
	if len(spec.ColExprs) != len(spec.Cols) {
		return nil, fmt.Errorf("core: output %q: %d col exprs for %d cols", spec.Name, len(spec.ColExprs), len(spec.Cols))
	}
	s := &sink{rowWidth: len(spec.Cols), comp: spec.Key.Composer(), fills: p.fills}
	for _, r := range spec.KeyRefs {
		off, err := p.layout.resolve(r)
		if err != nil {
			return nil, err
		}
		s.keyOffs = append(s.keyOffs, off)
	}
	for i, e := range spec.ColExprs {
		if e.Fn != nil {
			s.exprs = append(s.exprs, compiledExpr{fn: e.Fn})
			continue
		}
		off, err := p.layout.resolve(e.Ref)
		if err != nil {
			return nil, fmt.Errorf("core: output %q col %d: %w", spec.Name, i, err)
		}
		s.exprs = append(s.exprs, compiledExpr{off: off})
	}
	s.out = newOutputIndex(spec, p.rec)
	s.keys = arena.NewChunk[uint64](p.rec, p.bufSize)
	s.rows = arena.NewChunk[[]uint64](p.rec, p.bufSize)
	s.arena = arena.NewChunk[uint64](p.rec, p.bufSize*s.rowWidth)
	p.snk = s
	p.initJoinbuffer()
	return newOutputTable(spec, s.out, p.rec), nil
}

// initJoinbuffer draws the slot chunk and every stage's queue from the
// pool and decides which stages take late entries. It runs once the
// residuals are in place and the stages are final.
func (p *pipeline) initJoinbuffer() {
	if len(p.stages) == 0 {
		return
	}
	p.slots = arena.NewChunk[uint64](p.rec, len(p.stages)*p.bufSize*p.layout.width)
	p.slots = p.slots[:cap(p.slots)]
	for s, st := range p.stages {
		st.visit = func(j int, lf *Leaf) { p.hit(s, j, lf) }
		st.sel = arena.NewChunk[int32](p.rec, p.bufSize)
		st.keys = arena.NewChunk[uint64](p.rec, p.bufSize)
		if col, ok := p.lateCol(s); ok {
			st.late, st.lateCol, st.prevInput = true, col, p.stages[s-1].input
			st.rows = arena.NewChunk[[]uint64](p.rec, p.bufSize)
		}
	}
}

// lateCol reports whether stage s is late: it probes with column col of
// stage s−1's rows, and no filter sits at its entry.
func (p *pipeline) lateCol(s int) (col int, ok bool) {
	if s == 0 || p.filter(s) != nil {
		return 0, false
	}
	return p.stages[s].probesCol(p.layout, p.stages[s-1])
}

// probesCol reports whether st probes with column col of from's rows.
func (st *probeStage) probesCol(l ctxLayout, from *probeStage) (col int, ok bool) {
	col = st.probeOff - l.colOff(from.input, 0)
	return col, col >= 0 && col < len(from.table.Cols)
}

// A keyFilter is the exact key set of an index as a bitmap over [lo, lo+n):
// bit d of words is set when lo+d is a key. An empty index gets n = 0,
// which rejects every key.
type keyFilter struct {
	lo, n uint64
	words []uint64
}

// has reports whether k is a key of the filtered index.
func (f *keyFilter) has(k uint64) bool {
	d := k - f.lo // a key below lo wraps past n
	return d < f.n && f.words[d>>6]&(1<<(d&63)) != 0
}

// newKeyFilter returns the key filter of idx, its words drawn from rec, or
// nil when its bitmap would be larger than the index (Bytes) or, with
// holey set, when the index has no hole (Keys = Max−Min+1). An empty index
// gets one that rejects every key.
func newKeyFilter(rec *arena.Recycler, idx Index, holey bool) *keyFilter {
	lo, hi, ok := idxBounds(idx)
	if !ok {
		return &keyFilter{}
	}
	span := hi - lo // the index spans span+1 keys; +1 could overflow
	if holey && uint64(idx.Keys()) > span || span>>6 >= uint64(idx.Bytes()/8) {
		return nil
	}
	n := int(span>>6) + 1
	words := arena.NewChunk[uint64](rec, n)[:n]
	idx.Iterate(func(lf *Leaf) bool {
		d := lf.Key - lo
		words[d>>6] |= 1 << (d & 63)
		return true
	})
	return &keyFilter{lo: lo, n: span + 1, words: words}
}

// keyFilter returns the key filter of t's index under newKeyFilter's rule.
// A base index never changes, so its filter is built once, on the heap,
// and kept with the table; an operator output's is drawn from the pool,
// and parkKeyFilters returns it.
func (p *pipeline) keyFilter(t *IndexedTable, holey bool) *keyFilter {
	if t.pooled {
		f := newKeyFilter(p.rec, t.Idx, holey)
		if f != nil {
			p.owned = append(p.owned, f.words)
		}
		return f
	}
	t.filterOnce.Do(func() { t.filter = newKeyFilter(nil, t.Idx, false) })
	f := t.filter
	if holey && f != nil && f.n != 0 && uint64(t.Keys()) == f.n {
		return nil
	}
	return f
}

// buildKeyFilters decides which key filter is tested where, and which
// stages leave the pipeline. runMorsels calls it once per operator
// execution, on the first pipeline, before any morsel runs and before the
// joinbuffer is laid out; the other workers' pipelines are clones that
// share the decision, and parkKeyFilters returns the pooled bitmaps once
// every pipeline is done.
//
// The rule reads the indexes, not a knob. An assist that probes with a
// fact column is tested on stage 0's rows, the main probe's. It is
// filter-only, and leaves, when its table carries no column, has a
// one-attribute key and one row per key, and its bitmap is no larger than
// its index: the test then decides everything its lookup would. Any other
// stage probed with a column of the previous stage's rows (a late stage)
// is tested on those rows. Either way a filter is tested only when its
// bitmap is no larger than the index and, unless the stage is
// filter-only, the index has a hole: over big or hole-free indexes a
// bitmap cost more than it saved.
func (p *pipeline) buildKeyFilters() {
	if len(p.stages) == 0 {
		return
	}
	fact, kept := p.stages[0], p.stages[:1]
	for _, st := range p.stages[1:] {
		for _, fl := range p.fills {
			if st.probeOff == fl.dst { // the key of a stage that left is its probe key
				st.probeOff = fl.src
			}
		}
		col, ok := st.probesCol(p.layout, fact)
		if !ok {
			kept = append(kept, st)
			continue
		}
		t := st.table
		only := len(t.Cols) == 0 && len(t.Key.Attrs) == 1 && t.Rows() == t.Keys()
		f := p.keyFilter(t, !only)
		if f != nil {
			fact.fan = append(fact.fan, fanTest{col: col, f: f})
		}
		if only && f != nil {
			p.fills = append(p.fills, keyFill{dst: p.layout.keyOff(st.input, 0), src: st.probeOff})
			continue
		}
		kept = append(kept, st)
	}
	p.stages = kept
	for s := 1; s < len(p.stages); s++ {
		st := p.stages[s]
		if _, ok := st.probesCol(p.layout, fact); ok {
			continue
		}
		if col, ok := p.lateCol(s); ok {
			if f := p.keyFilter(st.table, true); f != nil {
				prev := p.stages[s-1]
				prev.fan = append(prev.fan, fanTest{col: col, f: f})
			}
		}
	}
}

// parkKeyFilters returns the pooled filters' words to the chunk pool.
func (p *pipeline) parkKeyFilters() {
	for _, w := range p.owned {
		putScratch(p.rec, w, len(w))
	}
	p.owned = nil
}

// release parks the recycler-backed buffers — the sink's insert buffer,
// the slot chunk and the stage queues — back in the pipeline's chunk pool.
// The buffers are scratch, truncated and refilled per flush, so each goes
// back at the high-water length any flush left in it: that prefix is all
// the pool has to clear.
func (p *pipeline) release() {
	s := p.snk
	n := s.high
	putScratch(p.rec, s.keys, n)
	putScratch(p.rec, s.rows, n)
	putScratch(p.rec, s.arena, n*s.rowWidth)
	s.keys, s.rows, s.arena = nil, nil, nil
	putScratch(p.rec, p.slots, p.slotHigh*p.layout.width)
	p.slots = nil
	for _, st := range p.stages {
		putScratch(p.rec, st.sel, st.high)
		putScratch(p.rec, st.keys, st.high)
		putScratch(p.rec, st.rows, st.high)
		st.sel, st.keys, st.rows = nil, nil, nil
	}
}

// putScratch parks one scratch buffer at its high-water length n.
func putScratch[T any](rec *arena.Recycler, c []T, n int) {
	if c != nil {
		arena.PutChunk(rec, c[:n])
	}
}

// feed pushes a completed base combination into the pipeline: past the
// residual, it is copied into a stage 0 slot — the one copy every
// combination pays — or straight into the sink when the operator probes
// nothing. Callers may reuse ctx.
func (p *pipeline) feed(ctx []uint64) {
	if p.residual != nil && !p.residual(ctx) {
		return
	}
	if len(p.stages) == 0 {
		p.snk.feed(ctx, p.bufSize)
		return
	}
	t := p.newSlot(0)
	copy(p.slot(t), ctx)
	p.queue(0, t, nil, ctx[p.stages[0].probeOff])
}

// slot returns the combination stored in slot r.
func (p *pipeline) slot(r int32) []uint64 {
	w := p.layout.width
	off := int(r) * w
	return p.slots[off : off+w : off+w]
}

// newSlot hands out a free slot of stage s's region. A full region is
// reclaimed first: draining the stages from s on moves every combination
// that references it into the sink.
func (p *pipeline) newSlot(s int) int32 {
	st := p.stages[s]
	if st.used == p.bufSize {
		p.drain(s)
		st.used = 0
	}
	r := s*p.bufSize + st.used
	st.used++
	p.slotHigh = max(p.slotHigh, r+1)
	return int32(r)
}

// drain flushes stages s, s+1, … in order; afterwards every queue from s
// on is empty.
func (p *pipeline) drain(s int) {
	for ; s < len(p.stages); s++ {
		p.flushStage(s)
	}
}

// push passes the combination in slot t through the filter at stage i's
// entry and queues it there, or feeds the sink when i is past the last
// stage.
func (p *pipeline) push(i int, t int32) {
	ctx := p.slot(t)
	if f := p.filter(i); f != nil && !f(ctx) {
		return
	}
	if i == len(p.stages) {
		p.snk.feed(ctx, p.bufSize)
		return
	}
	p.queue(i, t, nil, ctx[p.stages[i].probeOff])
}

// queue appends one entry to stage i's joinbuffer — slot t, probe key k
// and, for a late entry, the previous stage's row — and flushes the stage
// when the buffer is full.
func (p *pipeline) queue(i int, t int32, row []uint64, k uint64) {
	st := p.stages[i]
	st.sel = append(st.sel, t)
	st.keys = append(st.keys, k)
	if st.late {
		st.rows = append(st.rows, row)
	}
	if len(st.keys) == p.bufSize {
		p.flushStage(i)
	}
}

// flushStage drains stage s's joinbuffer with one batched lookup, passing
// surviving (extended) combinations onward. The queues are reused after the
// flush: combinations only ever flow to later stages, so nothing can refill
// this stage while it drains.
func (p *pipeline) flushStage(s int) {
	st := p.stages[s]
	n := len(st.keys)
	if n == 0 {
		return
	}
	st.high = max(st.high, n)
	p.lookups += n
	st.table.Idx.LookupBatch(st.keys, st.visit)
	st.sel, st.keys = st.sel[:0], st.keys[:0]
	if st.late {
		st.rows = st.rows[:0]
	}
}

// hit extends entry j of stage s's joinbuffer with the rows of lf, the
// leaf of its key (nil: a miss, which drops the combination), and passes
// the results on in row order. Slot r is the entry's combination. A late
// entry still has to take the previous stage's row and shares r with its
// siblings, so it is copied before it is written — unless the next stop
// is the sink, which copies each combination out right away.
func (p *pipeline) hit(s, j int, lf *Leaf) {
	if lf == nil {
		return
	}
	st := p.stages[s]
	r, k, vals := st.sel[j], lf.Key, &lf.Vals
	var lateRow []uint64
	if st.late {
		lateRow = st.rows[j]
	}
	switch {
	case s == len(p.stages)-1:
		ctx := p.slot(r)
		p.fillHead(st, ctx, lateRow, k)
		f := p.filter(s + 1)
		p.scanRows(vals, st.fan, func(row []uint64) bool {
			p.layout.fillRow(ctx, st.input, row)
			if f == nil || f(ctx) {
				p.snk.feed(ctx, p.bufSize)
			}
			return true
		})
	case vals.Len() == 1:
		if st.fan != nil && !p.pass(st.fan, vals.First()) {
			return
		}
		t := r
		if lateRow != nil {
			t = p.copySlot(s+1, r)
		}
		ctx := p.slot(t)
		p.fillHead(st, ctx, lateRow, k)
		p.layout.fillRow(ctx, st.input, vals.First())
		p.push(s+1, t)
	case p.stages[s+1].late:
		// Late materialization: the next stage probes with a column of
		// these rows, so it queues each row with the key it needs and
		// copies only its hits. The parent slot carries everything up to
		// this stage's key.
		parent := r
		if lateRow != nil {
			parent = p.copySlot(s+1, r)
		}
		p.fillHead(st, p.slot(parent), lateRow, k)
		// The rows are queued a run at a time, with no call per row, so
		// the loads of consecutive fact rows overlap.
		next := p.stages[s+1]
		col, w, fan := next.lateCol, vals.Width(), st.fan
		vals.Runs(func(run []uint64) bool {
			for ; len(run) > 0; run = run[w:] {
				if fan != nil && !p.pass(fan, run) {
					continue
				}
				next.sel = append(next.sel, parent)
				next.keys = append(next.keys, run[col])
				next.rows = append(next.rows, run[:w:w])
				if len(next.keys) == p.bufSize {
					p.flushStage(s + 1)
				}
			}
			return true
		})
	default:
		// A fan-out: the first row of an in-place entry takes r itself,
		// every other row a copy of it.
		first := lateRow == nil
		p.scanRows(vals, st.fan, func(row []uint64) bool {
			t := r
			if !first {
				t = p.copySlot(s+1, r)
			}
			first = false
			ctx := p.slot(t)
			p.fillHead(st, ctx, lateRow, k)
			p.layout.fillRow(ctx, st.input, row)
			p.push(s+1, t)
			return true
		})
	}
}

// scanRows visits the rows of vals in list order, only those every filter
// of fan passes when there is one.
func (p *pipeline) scanRows(vals *duplist.List, fan []fanTest, visit func(row []uint64) bool) {
	if fan == nil {
		vals.Scan(visit)
		return
	}
	vals.Scan(func(row []uint64) bool { return !p.pass(fan, row) || visit(row) })
}

// pass tests row against fan's filters in order; the first that lacks the
// row's probe key drops it, and counts it filtered.
func (p *pipeline) pass(fan []fanTest, row []uint64) bool {
	for _, t := range fan {
		if !t.f.has(row[t.col]) {
			p.filtered++
			return false
		}
	}
	return true
}

// fillHead writes stage st's key k into ctx, after the previous stage's row
// when the entry is late.
func (p *pipeline) fillHead(st *probeStage, ctx, lateRow []uint64, k uint64) {
	if lateRow != nil {
		p.layout.fillRow(ctx, st.prevInput, lateRow)
	}
	p.layout.fillKey(ctx, st.input, k, st.comp)
}

// copySlot copies the combination in slot r into a new slot of stage s's
// region.
func (p *pipeline) copySlot(s int, r int32) int32 {
	t := p.newSlot(s)
	copy(p.slot(t), p.slot(r))
	return t
}

// feed buffers one combination in the sink; flush materializes and inserts.
func (s *sink) feed(ctx []uint64, bufSize int) {
	for _, f := range s.fills {
		ctx[f.dst] = ctx[f.src]
	}
	var k uint64
	switch len(s.keyOffs) {
	case 0:
		k = 0
	case 1:
		k = ctx[s.keyOffs[0]]
	default:
		if s.fieldsBuf == nil {
			s.fieldsBuf = make([]uint64, len(s.keyOffs))
		}
		for i, off := range s.keyOffs {
			s.fieldsBuf[i] = ctx[off]
		}
		k = s.comp.Compose(s.fieldsBuf...)
	}
	start := len(s.arena)
	for _, e := range s.exprs {
		if e.fn != nil {
			s.arena = append(s.arena, e.fn(ctx))
		} else {
			s.arena = append(s.arena, ctx[e.off])
		}
	}
	s.keys = append(s.keys, k)
	s.rows = append(s.rows, s.arena[start:len(s.arena):len(s.arena)])
	if len(s.keys) >= bufSize {
		s.flush()
	}
}

// flush issues the batched insert (materialization + indexing).
func (s *sink) flush() {
	if len(s.keys) == 0 {
		return
	}
	s.high = max(s.high, len(s.keys))
	t0 := time.Now()
	if s.rowWidth == 0 {
		s.out.InsertBatch(s.keys, nil)
	} else {
		s.out.InsertBatch(s.keys, s.rows)
	}
	s.insertTime += time.Since(t0)
	s.inserted += len(s.keys)
	s.keys, s.rows, s.arena = s.keys[:0], s.rows[:0], s.arena[:0]
}

// finish drains every buffer in stage order and gives the pooled buffers
// back; the pipeline is done afterwards.
func (p *pipeline) finish() {
	p.drain(0)
	p.snk.flush()
	p.release()
}
