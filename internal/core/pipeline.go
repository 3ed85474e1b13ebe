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
// rows of every assisting index probed so far. Combinations flow through a
// sequence of probe stages (one per assisting index) into the sink, which
// materializes the output key and payload row and inserts them into the
// output index.
//
// Every stage buffers combinations and works on batches: probe stages issue
// batched index lookups through the joinbuffer/selectionbuffer, and the
// sink issues batched index inserts (paper Sections 2.3 and 4.2). Buffer
// size 1 degenerates to scalar tuple-at-a-time processing, which is exactly
// the knob the paper's demonstrator exposes.

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

// A probeStage joins one assisting index into the combination (paper
// Section 4.2): the probe key is read from the context, looked up in the
// assisting index (batched through the joinbuffer), and each returned row
// extends the combination; a miss removes the combination.
type probeStage struct {
	table    *IndexedTable
	input    int // this stage's input ordinal in the layout
	probeOff int // ctx offset holding the probe key
	comp     *key.Composer

	// joinbuffer
	ctxs  [][]uint64
	keys  []uint64
	arena []uint64
}

// A sink materializes combinations into the output index: it assembles the
// output key (composed if multi-attribute) and payload row, then issues
// batched inserts.
type sink struct {
	out      Index
	keyOffs  []int
	comp     *key.Composer
	exprs    []compiledExpr
	rowWidth int

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
	layout   ctxLayout
	qctx     context.Context // query context; scans poll it for cancellation
	ticks    int             // feed counter driving the periodic ctx poll
	stopped  bool            // latched once qctx is cancelled
	rec      *arena.Recycler // plan chunk pool for the output index
	residual func(ctx []uint64) bool
	// filters[i], if set, drops combinations entering stage i
	// (i == len(stages) filters combinations entering the sink). This is
	// how composed operators place residual predicates after the probe
	// that makes their attributes available.
	filters []func(ctx []uint64) bool
	stages  []*probeStage
	snk     *sink
	bufSize int
	lookups int // probe-stage lookups issued (stats)
	morsels int // key-range morsels scanned through this pipeline (stats)
}

// setFilter installs a combination filter at the entry of stage i.
func (p *pipeline) setFilter(i int, f func(ctx []uint64) bool) {
	if f == nil {
		return
	}
	for len(p.filters) <= i {
		p.filters = append(p.filters, nil)
	}
	p.filters[i] = f
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

// addProbe appends a probe stage for assisting input `input`, probing with
// the attribute at ctx offset probeOff.
func (p *pipeline) addProbe(input int, probeOff int) {
	p.stages = append(p.stages, &probeStage{
		table:    p.layout.inputs[input],
		input:    input,
		probeOff: probeOff,
		comp:     p.layout.inputs[input].Key.Composer(),
	})
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
	return newOutputTable(spec, s.out, p.rec), nil
}

// release parks the sink's recycler-backed insert buffer back in the
// pipeline's chunk pool. The buffers are scratch, truncated and refilled
// per flush, so each goes back at the high-water length any flush left in
// it: that prefix is all the pool has to clear.
func (p *pipeline) release() {
	s := p.snk
	n := s.high
	putScratch(p.rec, s.keys, n)
	putScratch(p.rec, s.rows, n)
	putScratch(p.rec, s.arena, n*s.rowWidth)
	s.keys, s.rows, s.arena = nil, nil, nil
}

// putScratch parks one scratch buffer at its high-water length n.
func putScratch[T any](rec *arena.Recycler, c []T, n int) {
	if c != nil {
		arena.PutChunk(rec, c[:n])
	}
}

// feed pushes a completed base combination into the pipeline. The ctx slice
// is copied; callers may reuse it.
func (p *pipeline) feed(ctx []uint64) {
	if p.residual != nil && !p.residual(ctx) {
		return
	}
	p.feedStage(0, ctx)
}

func (p *pipeline) feedStage(i int, ctx []uint64) {
	if i < len(p.filters) && p.filters[i] != nil && !p.filters[i](ctx) {
		return
	}
	if i == len(p.stages) {
		p.snk.feed(ctx, p.bufSize)
		return
	}
	st := p.stages[i]
	// Copy ctx into the stage arena (joinbuffer).
	if cap(st.arena) == 0 {
		st.arena = make([]uint64, 0, p.bufSize*p.layout.width)
	}
	start := len(st.arena)
	st.arena = append(st.arena, ctx...)
	st.ctxs = append(st.ctxs, st.arena[start:len(st.arena):len(st.arena)])
	st.keys = append(st.keys, ctx[st.probeOff])
	if len(st.ctxs) >= p.bufSize {
		p.flushStage(i)
	}
}

// flushStage drains stage i's joinbuffer with one batched lookup, feeding
// surviving (extended) combinations onward. The buffers are reused after
// the flush: combinations only ever flow to later stages, so nothing can
// refill this stage while it drains.
func (p *pipeline) flushStage(i int) {
	st := p.stages[i]
	if len(st.ctxs) == 0 {
		return
	}
	ctxs, keys := st.ctxs, st.keys
	p.lookups += len(keys)
	st.table.Idx.LookupBatch(keys, func(j int, vals *duplist.List) {
		if vals == nil {
			return // key absent: combination removed from the cross product
		}
		ctx := ctxs[j]
		p.layout.fillKey(ctx, st.input, keys[j], st.comp)
		if len(st.table.Cols) == 0 {
			// Existence-only assist (e.g. a unique key with no payload):
			// the row multiplicity still applies.
			for n := 0; n < vals.Len(); n++ {
				p.feedStage(i+1, ctx)
			}
			return
		}
		vals.Scan(func(row []uint64) bool {
			p.layout.fillRow(ctx, st.input, row)
			p.feedStage(i+1, ctx)
			return true
		})
	})
	st.ctxs, st.keys, st.arena = st.ctxs[:0], st.keys[:0], st.arena[:0]
}

// feed buffers one combination in the sink; flush materializes and inserts.
func (s *sink) feed(ctx []uint64, bufSize int) {
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

// finish drains every buffer in stage order and gives the sink's pooled
// buffers back; the pipeline is done afterwards.
func (p *pipeline) finish() {
	for i := range p.stages {
		p.flushStage(i)
	}
	p.snk.flush()
	p.release()
}
