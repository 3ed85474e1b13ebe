package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"qppt/internal/arena"
	"qppt/internal/key"
)

// The combination-context pipeline is the shared execution kernel of both
// operators (paper Section 4). A *combination* is one candidate output
// tuple: the driving tuple, the fact row the main probe found for it and
// the payload rows of every assisting index probed so far, laid out as one
// flat context (ctxLayout). Combinations flow through the probe stages —
// stage 0 the main probe into the fact input, then one per assist — into
// the sink, which materializes the output key and payload row and inserts
// them into the output index, or, for a folding output with a small key
// domain, folds the row into its slot of a flat array (dense.go). A
// selection has no stage: its combinations go straight to the sink.
//
// Every stage works on batches: probe stages issue batched index lookups
// through the joinbuffer/selectionbuffer, and the sink issues batched index
// inserts (paper Sections 2.3 and 4.2). Buffer size 1 degenerates to scalar
// tuple-at-a-time processing, which is exactly the knob the paper's
// demonstrator exposes. A stage flushes when its buffer fills, and every
// morsel ends by draining all stages and the sink (runMorsels), so a
// morsel's probes and inserts run on the worker that scanned it.
//
// The pipeline runs one shape, the star join: every assist probes with a
// foreign key of the fact rows, a payload column of input 1, and
// SelectJoin.pipe rejects any other probe. The joinbuffer is copy-free. A
// combination lives in one slot of the pipeline's flat slot chunk, and a
// stage's queue is a selection vector of slot numbers plus the probe keys.
// The main probe's hit fans out to the fact rows, all in the slot of the
// driving tuple: a row that passes the fan filters and the fact predicates
// is queued at stage 1, the late stage, as just (parent slot, row, key),
// and the parent and the row are copied into a slot of their own only for
// a probe hit (late materialization). A later stage's hit writes its
// segment where the combination already sits and queues the same slot
// onward; only its second and later rows take new slots. A miss leaves the
// combination out. The slot chunk is cut into regions of bufSize slots:
// the entries of stages 0 and 1 hold slots of region 0, those of any later
// stage s slots of region s−1. A full region is reclaimed by draining the
// stages from the one that takes its slots on, which moves every
// combination that still references it into the sink.
//
// Filters at the fan-out: a key filter (keyFilter, an exact bitmap of an
// index's keys) of an assist is tested on each fact row, in assist order,
// and then each fact predicate (an AttrPred on input 1), before the row is
// queued or fed, so a key an assist lacks costs one bit test, never a
// queue entry, a descent or a copy. The tests run as a batch kernel
// (narrow): over at most fanVec rows of a run at a time, each narrows a
// selection vector of row numbers branch-free (MonetDB/X100's selection
// vectors, Ross's branch-free selection), and only the survivors are
// queued or written, in run order. A predicate on the fact key is tested
// once per main-probe hit instead. The scan tests the predicates on input
// 0 the same way, with a selection vector of its own, before it feeds a
// tuple (feedScan).
//
// Gathered assists: an assist with a one-attribute key and one row per key
// whose bitmap and value arrays, one word per key of its span and carried
// column, are no larger than its index needs no probe: its filter decides
// what a lookup would, so it leaves the pipeline, and the sink writes the
// probe key into the assist's key and copies its carried columns from the
// arrays at probe key − lo (the invisible join of Abadi, Madden and
// Hachem, "Column-Stores vs. Row-Stores", SIGMOD 2008). An assist that
// carries nothing is the case of no arrays. The probe stages serve the
// assists with duplicate keys or spans too sparse for arrays.
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
// 4.2): the probe key is read from the context (on stage 1, from the fact
// row), looked up in the index (batched through the joinbuffer), and each
// returned row extends the combination; a miss removes the combination.
type probeStage struct {
	table    *IndexedTable
	input    int // this stage's input ordinal in the layout
	col      int // an assist's probe column of the fact rows; -1 on the main probe
	probeOff int // ctx offset holding the probe key
	comp     *key.Composer

	// The joinbuffer: the selection vector of queued combination slots,
	// their probe keys and, on stage 1, the fact row each entry still has
	// to take. All three are pool chunks of bufSize; high is the longest
	// queue any flush found, the prefix release hands back.
	sel   []int32
	keys  []uint64
	rows  [][]uint64
	high  int
	used  int                   // slots handed out for this stage's entries
	visit func(j int, lf *Leaf) // the LookupBatch visitor, built once
}

// A fanTest drops a fact row whose column col is not a key of an assist's
// index.
type fanTest struct {
	col int
	f   *keyFilter
}

// An attrTest drops a row whose value at col, a column of the row (or for
// a predicate on a key attribute, an offset of the combination), lies
// outside pred.
type attrTest struct {
	col  int
	pred KeyPred
}

// A predSet holds an operator's predicates on one input, resolved: the
// first keys tests are on a key attribute and read the combination, once
// per key; the rest are on a payload column and narrow each run's rows.
type predSet struct {
	tests []attrTest
	keys  int
}

// rows returns the tests on a payload column.
func (s *predSet) rows() []attrTest { return s.tests[s.keys:] }

// keep reports whether the key fields in ctx pass every test on a key
// attribute.
func (s *predSet) keep(ctx []uint64) bool {
	for _, t := range s.tests[:s.keys] {
		if !t.pred.Has(ctx[t.col]) {
			return false
		}
	}
	return true
}

// A keyFill writes the segment of an assist that left the pipeline: the
// probe key at ctx offset src into its key at dst, and the row f holds at
// that key into its columns after it.
type keyFill struct {
	dst, src int
	f        *keyFilter
}

// A fanSpec holds the fan-out's tests, the assists' key filters in assist
// order and the fact predicates on a column and on the fact key, and the
// sink's key fills of the assists that left. It is decided once per
// operator execution and shared read-only by every worker pipeline.
type fanSpec struct {
	filters []fanTest
	preds   predSet
	fills   []keyFill
}

// spec returns p's fanSpec, made on first use.
func (p *pipeline) spec() *fanSpec {
	if p.fan == nil {
		p.fan = &fanSpec{}
	}
	return p.fan
}

// A sink materializes combinations into the output index: it assembles the
// output key (composed if multi-attribute) and payload row, then issues
// batched inserts. A folding output with a small key domain folds each
// row straight into its dense array instead (dense.go), untimed: a clock
// read per row would cost more than the fold. The array reaches the
// output index, timed, once the operator's workers are done.
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

	dense *denseFold // nil: the output folds into its index

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
	layout ctxLayout
	poll   abortPoll       // the query context, polled per scanned key
	rec    *arena.Recycler // plan chunk pool for the output index
	// scan holds the predicates on input 0; scanVec is the selection
	// vector its tests on a payload column narrow, a pool chunk of fanVec
	// row numbers, nil without them; scanCtx is the combination the scan
	// fills, a pool chunk; leaf is the scan's visitor, built once.
	scan     predSet
	scanVec  []int32
	scanCtx  []uint64
	scanComp *key.Composer
	leaf     func(lf *Leaf) bool
	// stages are the probe stages: stage 0 is the main probe, and its
	// rows are the fact rows every assist probes with.
	stages []*probeStage
	// fan is what the fan-out tests, nil when it tests nothing and no
	// assist left.
	fan *fanSpec
	// vec is the fan-out's selection vector, a pool chunk of fanVec row
	// numbers, nil when no fan filter or row predicate narrows; its length
	// is the most rows any narrowing wrote, the prefix release clears.
	vec      []int32
	snk      *sink
	bufSize  int
	lookups  int // probe-stage lookups issued (stats)
	filtered int // probe keys or fan-out rows a key filter dropped without a lookup (stats)
	dropped  int // rows a predicate dropped (stats)
	morsels  int // key-range morsels scanned through this pipeline (stats)

	// slots holds every combination in flight, layout.width words each:
	// stage s owns slots [s·bufSize, (s+1)·bufSize). slotHigh is the
	// written prefix in slots, the part release hands the pool to clear.
	slots    []uint64
	slotHigh int
}

func newPipeline(ec *ExecContext, layout ctxLayout) *pipeline {
	return &pipeline{layout: layout, poll: abortPoll{ctx: ec.ctx}, bufSize: ec.bufferSize(), rec: ec.rec}
}

// abortTickMask throttles the cancellation poll to one ctx.Err() call per
// 1024 ticks — cheap against the index work per tick, frequent enough that
// even a serial whole-input scan unwinds within a fraction of a
// millisecond of cancellation.
const abortTickMask = 1<<10 - 1

// An abortPoll polls a query context (nil: not cancellable) on the
// abortTickMask cadence and latches its cancellation.
type abortPoll struct {
	ctx     context.Context
	ticks   int
	stopped bool
}

// aborted ticks the poll and reports whether the query is cancelled; scan
// and fold loops call it per visited key and stop early once it reports
// true. The partial output is discarded by the caller — runMorsels
// re-checks the context after every morsel and surfaces ctx.Err().
func (a *abortPoll) aborted() bool {
	if !a.stopped && a.ctx != nil {
		a.ticks++
		a.stopped = a.ticks&abortTickMask == 0 && a.ctx.Err() != nil
	}
	return a.stopped
}

// addPreds resolves an operator's predicates against the layout: those on
// input 0 go to the scan, those on input 1 to the fan-out. A predicate on
// any other input, or on an attribute its input lacks, is a plan error.
func (p *pipeline) addPreds(op Operator, preds []AttrPred) error {
	for _, ap := range preds {
		r := ap.Ref
		if r.Input < 0 || r.Input > 1 || r.Input >= len(p.layout.inputs) {
			return fmt.Errorf("core: %s: predicate on input %d: only the scanned input and a select-join's main input take predicates", op.Label(), r.Input)
		}
		in := p.layout.inputs[r.Input]
		set := &p.scan
		if r.Input == 1 {
			set = &p.spec().preds
		}
		if c := in.Col(r.Attr); c >= 0 {
			set.tests = append(set.tests, attrTest{c, ap.Pred})
		} else if f := in.Key.Field(r.Attr); f >= 0 {
			set.tests = slices.Insert(set.tests, set.keys, attrTest{p.layout.keyOff(r.Input, f), ap.Pred})
			set.keys++
		} else {
			return fmt.Errorf("core: %s: predicate on %q, not an attribute of input %d (%s)", op.Label(), r.Attr, r.Input, in.Name)
		}
	}
	return nil
}

// addProbe appends a probe stage for input `input`, probing with the
// attribute at ctx offset probeOff, column col of the fact rows.
func (p *pipeline) addProbe(input, col, probeOff int) {
	p.stages = append(p.stages, &probeStage{
		table:    p.layout.inputs[input],
		input:    input,
		col:      col,
		probeOff: probeOff,
		comp:     p.layout.inputs[input].Key.Composer(),
	})
}

// clone returns a pipeline for another worker of the same operator
// execution: p's layout, predicates, stages and filters, with buffers of
// its own once setSink lays them out.
func (p *pipeline) clone() *pipeline {
	q := &pipeline{layout: p.layout, poll: abortPoll{ctx: p.poll.ctx}, rec: p.rec, bufSize: p.bufSize, scan: p.scan, fan: p.fan}
	for _, st := range p.stages {
		q.stages = append(q.stages, &probeStage{table: st.table, input: st.input, col: st.col, probeOff: st.probeOff, comp: st.comp})
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
	s := &sink{rowWidth: len(spec.Cols), comp: spec.Key.Composer()}
	if p.fan != nil {
		s.fills = p.fan.fills
	}
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
	if n := denseSlots(spec); n > 0 {
		s.dense = newDenseFold(spec, n, p.rec)
	}
	s.keys = arena.NewChunk[uint64](p.rec, p.bufSize)
	s.rows = arena.NewChunk[[]uint64](p.rec, p.bufSize)
	s.arena = arena.NewChunk[uint64](p.rec, p.bufSize*s.rowWidth)
	p.snk = s
	p.initJoinbuffer()
	return newOutputTable(spec, s.out, p.rec), nil
}

// initJoinbuffer draws the scan's combination, its selection vector when
// a predicate narrows the scan, and the slot chunk, every stage's queue
// and, when anything narrows the fan-out, its selection vector from the
// pool. It runs once the stages and filters are final.
func (p *pipeline) initJoinbuffer() {
	if len(p.scan.rows()) > 0 {
		p.scanVec = arena.NewChunk[int32](p.rec, fanVec)
	}
	p.scanCtx = arena.NewChunk[uint64](p.rec, p.layout.width)[:p.layout.width]
	p.scanComp = p.layout.inputs[0].Key.Composer()
	p.leaf = p.scanLeaf
	if len(p.stages) == 0 {
		return
	}
	if f := p.fan; f != nil && len(f.filters)+len(f.preds.rows()) > 0 {
		p.vec = arena.NewChunk[int32](p.rec, fanVec)
	}
	p.slots = arena.NewChunk[uint64](p.rec, max(len(p.stages)-1, 1)*p.bufSize*p.layout.width)
	p.slots = p.slots[:cap(p.slots)]
	for s, st := range p.stages {
		st.visit = func(j int, lf *Leaf) { p.hit(s, j, lf) }
		st.sel = arena.NewChunk[int32](p.rec, p.bufSize)
		st.keys = arena.NewChunk[uint64](p.rec, p.bufSize)
		if s == 1 {
			st.rows = arena.NewChunk[[]uint64](p.rec, p.bufSize)
		}
	}
}

// A keyFilter is the exact key set of an index as a bitmap over [lo, lo+n):
// bit d of words is set when lo+d is a key. An empty index gets n = 0,
// which rejects every key. A filter that gathers also holds the index's
// payload rows by position over the same span, w words per key: the row
// of key lo+d is vals[d·w : d·w+w].
type keyFilter struct {
	lo, n  uint64
	words  []uint64
	gather bool // the index is read by position: its assist leaves the pipeline
	w      int
	vals   []uint64
	pooled bool // words and vals came from the pool, and parkKeyFilters returns them
}

// newKeyFilter returns the key filter of t's index, its words and arrays
// drawn from rec, or nil when its bitmap would be larger than the index
// (Bytes). It gathers when t has a one-attribute key and one row per key
// and its arrays, n·w words, are no larger than the index either;
// otherwise it is nil also when the index has no hole (Keys = Max−Min+1).
// An empty index gets one that rejects every key.
func newKeyFilter(rec *arena.Recycler, t *IndexedTable) *keyFilter {
	idx, w := t.Idx, len(t.Cols)
	unique := len(t.Key.Attrs) == 1 && t.Rows() == t.Keys()
	lo, hi, ok := idxBounds(idx)
	if !ok {
		return &keyFilter{gather: unique, w: w}
	}
	span, size := hi-lo, uint64(idx.Bytes()/8) // the index spans span+1 keys (+1 could overflow) in size words
	if span>>6 >= size {
		return nil
	}
	gather := unique && (span+1)*uint64(w) <= size
	if !gather && uint64(idx.Keys()) > span {
		return nil
	}
	n := int(span>>6) + 1
	f := &keyFilter{lo: lo, n: span + 1, words: arena.NewChunk[uint64](rec, n)[:n], gather: gather, w: w, pooled: rec != nil}
	if gather && w > 0 {
		f.vals = arena.NewChunk[uint64](rec, int(f.n)*w)[:int(f.n)*w]
	}
	idx.Iterate(func(lf *Leaf) bool {
		d := lf.Key - lo
		f.words[d>>6] |= 1 << (d & 63)
		if f.vals != nil {
			lf.Vals.Scan(func(row []uint64) bool { copy(f.vals[int(d)*w:], row); return false })
		}
		return true
	})
	return f
}

// keyFilter returns the key filter of t under newKeyFilter's rule. A base
// index never changes, so its filter is built once, on the heap, and kept
// with the table; an operator output's is drawn from the pool, and
// parkKeyFilters returns it.
func (p *pipeline) keyFilter(t *IndexedTable) *keyFilter {
	if t.pooled {
		return newKeyFilter(p.rec, t)
	}
	t.filterOnce.Do(func() { t.filter = newKeyFilter(nil, t) })
	return t.filter
}

// buildKeyFilters decides which key filters are tested on the fact rows,
// and which assists leave the pipeline. runMorsels calls it once per
// operator execution, on the first pipeline, before any morsel runs and
// before the joinbuffer is laid out; the other workers' pipelines are
// clones that share the decision, and parkKeyFilters returns the pooled
// bitmaps and arrays once every pipeline is done.
//
// The rule reads the indexes, not a knob (newKeyFilter). Every assist
// probes with a fact column, and its filter is tested on each fact row
// the main probe yields, in assist order. An assist whose filter gathers
// leaves: the test decides everything its lookup would, and the sink
// reads the assist's row by position (keyFill). Any other assist keeps
// its probe stage, and its filter, when it has one, only spares the
// lookups of keys in the index's holes.
func (p *pipeline) buildKeyFilters() {
	if len(p.stages) == 0 {
		return
	}
	kept := p.stages[:1]
	for _, st := range p.stages[1:] {
		f := p.keyFilter(st.table)
		if f != nil {
			p.spec().filters = append(p.spec().filters, fanTest{col: st.col, f: f})
		}
		if f != nil && f.gather {
			p.spec().fills = append(p.spec().fills, keyFill{dst: p.layout.keyOff(st.input, 0), src: st.probeOff, f: f})
			continue
		}
		kept = append(kept, st)
	}
	p.stages = kept
}

// parkKeyFilters returns the pooled filters' words and arrays to the chunk
// pool.
func (p *pipeline) parkKeyFilters() {
	if p.fan == nil {
		return
	}
	for _, t := range p.fan.filters {
		if t.f.pooled {
			putScratch(p.rec, t.f.words, len(t.f.words))
			putScratch(p.rec, t.f.vals, len(t.f.vals))
		}
	}
}

// release parks the recycler-backed buffers — the sink's insert buffer,
// the slot chunk, the stage queues and the selection vectors — back in the
// pipeline's chunk pool.
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
	if s.dense != nil {
		s.dense.release(p.rec)
	}
	putScratch(p.rec, p.slots, p.slotHigh*p.layout.width)
	putScratch(p.rec, p.vec, len(p.vec))
	putScratch(p.rec, p.scanVec, len(p.scanVec))
	putScratch(p.rec, p.scanCtx, len(p.scanCtx))
	p.slots, p.vec, p.scanVec, p.scanCtx = nil, nil, nil, nil
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

// feed pushes a completed base combination into the pipeline: it is
// copied into a stage 0 slot — the one copy every combination pays — or
// straight into the sink when the operator probes nothing. Callers may
// reuse ctx.
func (p *pipeline) feed(ctx []uint64) {
	if len(p.stages) == 0 {
		p.snk.feed(ctx, p.bufSize)
		return
	}
	t := p.newSlot(0)
	copy(p.slot(t), ctx)
	p.queue(0, t)
}

// slot returns the combination stored in slot r.
func (p *pipeline) slot(r int32) []uint64 {
	w := p.layout.width
	off := int(r) * w
	return p.slots[off : off+w : off+w]
}

// newSlot hands out a free slot for an entry of stage s ≠ 1, from region
// max(s−1, 0). A full region is reclaimed first: draining the stages from
// s on moves every combination that references it into the sink.
func (p *pipeline) newSlot(s int) int32 {
	st := p.stages[s]
	if st.used == p.bufSize {
		p.drain(s)
		st.used = 0
	}
	r := max(s-1, 0)*p.bufSize + st.used
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

// queue appends slot t to stage i's joinbuffer, with the probe key its
// combination holds, and flushes the stage when the buffer is full.
func (p *pipeline) queue(i int, t int32) {
	st := p.stages[i]
	st.sel = append(st.sel, t)
	st.keys = append(st.keys, p.slot(t)[st.probeOff])
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
	st.sel, st.keys, st.rows = st.sel[:0], st.keys[:0], st.rows[:0]
}

// hit extends entry j of stage s's joinbuffer with the rows of lf, the
// leaf of its key (nil: a miss, which drops the combination), and passes
// the results on in row order. Slot r is the entry's combination. A
// stage-1 entry still has to take its fact row and shares r with its
// siblings, so each of its rows writes a copy of r; a later stage's entry
// owns r, and its first row takes r itself. Rows bound for the sink are
// all written in r: the sink copies each combination out right away.
func (p *pipeline) hit(s, j int, lf *Leaf) {
	if lf == nil {
		return
	}
	if s == 0 {
		p.fanOut(j, lf)
		return
	}
	st := p.stages[s]
	r, k := st.sel[j], lf.Key
	last, own := s == len(p.stages)-1, s > 1
	lf.Vals.Scan(func(row []uint64) bool {
		t := r
		if !last && !own {
			t = p.copySlot(s+1, r)
		}
		own = false
		ctx := p.slot(t)
		if s == 1 {
			p.layout.fillRow(ctx, 1, st.rows[j])
		}
		p.layout.fillKey(ctx, st.input, k, st.comp)
		p.layout.fillRow(ctx, st.input, row)
		if last {
			p.snk.feed(ctx, p.bufSize)
		} else {
			p.queue(s+1, t)
		}
		return true
	})
}

// fanVec is V, the most fact rows of a run the fan-out narrows at once:
// the length of its selection vector.
const fanVec = 1024

// fanOut passes the fact rows of lf, the main probe's hit for stage 0's
// entry j, on in list order. A row that passes the fan filters and the
// fact predicates is queued at stage 1 with its probe key, copied into a
// slot only for a hit, or, with no stage left, written in the entry's slot,
// which all rows share, and fed to the sink, which copies it out.
func (p *pipeline) fanOut(j int, lf *Leaf) {
	main := p.stages[0]
	r := main.sel[j]
	ctx := p.slot(r)
	p.layout.fillKey(ctx, 1, lf.Key, main.comp)
	if f := p.fan; f != nil && !f.preds.keep(ctx) {
		p.dropped += lf.Vals.Len()
		return
	}
	w := lf.Vals.Width()
	if w == 0 {
		// The rows store no column to test or probe with: replay their
		// count into the sink.
		for n := lf.Vals.Len(); n > 0; n-- {
			p.snk.feed(ctx, p.bufSize)
		}
		return
	}
	var next *probeStage
	if len(p.stages) > 1 {
		next = p.stages[1]
	}
	// The survivors are passed on in a loop with no call per row, so the
	// loads of consecutive fact rows overlap.
	lf.Vals.Runs(func(run []uint64) bool {
		for len(run) > 0 {
			rows := run[:min(len(run), fanVec*w)]
			run = run[len(rows):]
			var sel []int32
			n := len(rows) / w
			if p.vec != nil {
				sel = p.narrow(&p.vec, rows, w, p.fan.filters, p.fan.preds.rows())
				n = len(sel)
			}
			for x := 0; x < n; x++ {
				o := x * w
				if sel != nil {
					o = int(sel[x]) * w
				}
				row := rows[o : o+w : o+w]
				if next == nil {
					p.layout.fillRow(ctx, 1, row)
					p.snk.feed(ctx, p.bufSize)
					continue
				}
				next.sel = append(next.sel, r)
				next.keys = append(next.keys, row[next.col])
				next.rows = append(next.rows, row)
				if len(next.keys) == p.bufSize {
					p.flushStage(1)
				}
			}
		}
		return true
	})
}

// narrow returns the numbers of the rows (w words each, at most fanVec)
// that pass every filter, in order, and then every row predicate, written
// into *vec, a pool chunk of fanVec entries whose length is the most rows
// any narrowing wrote: each test compacts the selection vector in place,
// keeping the order. A row the first failing filter drops counts
// filtered, one a predicate drops, dropped.
func (p *pipeline) narrow(vec *[]int32, rows []uint64, w int, filters []fanTest, preds []attrTest) []int32 {
	n := len(rows) / w
	if n > len(*vec) {
		*vec = (*vec)[:n]
	}
	sel := (*vec)[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	for _, t := range filters {
		k := t.f.narrow(sel, rows, w, t.col)
		p.filtered += len(sel) - k
		sel = sel[:k]
	}
	for i := range preds {
		k := preds[i].narrow(sel, rows, w)
		p.dropped += len(sel) - k
		sel = sel[:k]
	}
	return sel
}

// narrow keeps the entries of sel whose row has a key of the filtered
// index in column col, and returns how many it kept. Every entry is
// written, and the cursor advances by the test's bit: no branch depends
// on the key.
func (f *keyFilter) narrow(sel []int32, rows []uint64, w, col int) int {
	if f.n == 0 {
		return 0
	}
	lo, n, words := f.lo, f.n, f.words
	k := 0
	for _, i := range sel {
		d := rows[int(i)*w+col] - lo // a key below lo wraps past n
		_, in := bits.Sub64(d, n, 0) // 1 when d < n
		in = -in                     // all ones when d < n: d indexes the bitmap
		sel[k] = i
		k += int(words[d>>6&in] >> (d & 63) & in & 1)
	}
	return k
}

// narrow keeps the entries of sel whose row passes the test, as
// keyFilter.narrow does, and returns how many it kept: one range is one
// unsigned compare, v−lo ≤ hi−lo; several ranges are searched.
func (t *attrTest) narrow(sel []int32, rows []uint64, w int) int {
	k := 0
	if len(t.pred) != 1 || t.pred[0].Lo > t.pred[0].Hi {
		for _, i := range sel {
			sel[k] = i
			if t.pred.Has(rows[int(i)*w+t.col]) {
				k++
			}
		}
		return k
	}
	lo, span := t.pred[0].Lo, t.pred[0].Hi-t.pred[0].Lo
	for _, i := range sel {
		_, out := bits.Sub64(span, rows[int(i)*w+t.col]-lo, 0) // 1 when v−lo > span
		sel[k] = i
		k += int(out ^ 1)
	}
	return k
}

// copySlot copies the combination in slot r into a new slot for an entry
// of stage s.
func (p *pipeline) copySlot(s int, r int32) int32 {
	t := p.newSlot(s)
	copy(p.slot(t), p.slot(r))
	return t
}

// feed folds one combination into the dense array, or buffers it in the
// sink; flush materializes and inserts.
func (s *sink) feed(ctx []uint64, bufSize int) {
	for _, g := range s.fills {
		k := ctx[g.src]
		ctx[g.dst] = k
		// A plain loop: copy would call memmove for one or two words.
		f, w := g.f, g.f.w
		row, dst := f.vals[int(k-f.lo)*w:][:w], ctx[g.dst+1:][:w]
		for i := range row {
			dst[i] = row[i]
		}
	}
	if d := s.dense; d != nil {
		s.inserted++
		if row, fresh := d.claim(d.slot(ctx, s.keyOffs)); fresh {
			s.eval(row, ctx)
		} else if s.rowWidth > 0 {
			src := d.row(-1)
			s.eval(src, ctx)
			d.spec.Fold(row, src)
		}
		return
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
	s.arena = s.arena[:start+s.rowWidth]
	s.eval(s.arena[start:], ctx)
	s.keys = append(s.keys, k)
	s.rows = append(s.rows, s.arena[start:len(s.arena):len(s.arena)])
	if len(s.keys) >= bufSize {
		s.flush()
	}
}

// eval writes the payload row of the combination ctx into dst.
func (s *sink) eval(dst, ctx []uint64) {
	for i, e := range s.exprs {
		if e.fn != nil {
			dst[i] = e.fn(ctx)
		} else {
			dst[i] = ctx[e.off]
		}
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

// emitDense inserts the dense array's rows into the output index, which
// makes the index this worker's whole partial output.
func (s *sink) emitDense() {
	if s.dense == nil {
		return
	}
	t0 := time.Now()
	s.high = max(s.high, s.dense.emit(s.out, s.keys, s.rows))
	s.insertTime += time.Since(t0)
}
