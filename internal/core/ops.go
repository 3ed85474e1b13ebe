package core

import (
	"fmt"

	"qppt/internal/arena"
	"qppt/internal/duplist"
)

// An Operator is one node of a QPPT execution plan. Operators form a DAG;
// each produces exactly one intermediate indexed table, already indexed on
// the key its consumer requests (cooperative operators, paper Section 1).
type Operator interface {
	// Label names the operator instance for plans and statistics.
	Label() string
	// Children returns the input operators, in input-ordinal order.
	Children() []Operator
	// run executes the operator on the resolved inputs.
	run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error)
}

// predEnvelope returns the inclusive hull of a selection predicate's
// ranges; ok is false for a nil predicate (scan everything).
func predEnvelope(pred KeyPred) (uint64, uint64, bool) {
	if len(pred) == 0 {
		return 0, 0, false
	}
	lo, hi := pred[0].Lo, pred[0].Hi
	for _, r := range pred[1:] {
		lo, hi = min(lo, r.Lo), max(hi, r.Hi)
	}
	return lo, hi, true
}

// Base is the leaf operator: it passes a base index into the plan. Base
// indexes are either pure secondary indexes (payload = record identifier)
// or partially clustered indexes that carry the join/selection/grouping
// attributes of interest in their payload (paper Section 3).
type Base struct {
	Table *IndexedTable
}

// Label implements Operator.
func (b *Base) Label() string { return b.Table.Name }

// Children implements Operator.
func (b *Base) Children() []Operator { return nil }

func (b *Base) run(*ExecContext, []*IndexedTable) (*IndexedTable, error) {
	return b.Table, nil
}

// Selection is the selection/having operator (paper Section 4.1): it scans
// the qualifying key ranges of its input index and inserts the qualifying
// tuples into a new index on the key requested by the successive operator.
// Conjunctions over several attributes either run against a
// multidimensional (composed-key) input index, or use the Residual filter
// on payload attributes.
type Selection struct {
	Input Operator
	// Pred is the index-key predicate (union of ranges).
	Pred KeyPred
	// Residual, if non-nil, additionally filters combinations; offsets
	// into the context must be resolved with CtxOf.
	Residual func(ctx []uint64) bool
	Out      OutputSpec
}

// Having is the logical HAVING operator; physically it is the same
// operator as Selection (paper Section 4.1).
type Having = Selection

// Label implements Operator.
func (s *Selection) Label() string { return "σ→" + s.Out.Name }

// Children implements Operator.
func (s *Selection) Children() []Operator { return []Operator{s.Input} }

// CtxOf resolves an attribute of the selection's input to its context
// offset, for building Residual filters and computed expressions.
func (s *Selection) CtxOf(input *IndexedTable, attr string) int {
	return mustResolve(newCtxLayout(input), Ref{Input: 0, Attr: attr})
}

// pipe builds the selection's combination pipeline over its input; the
// caller attaches the sink (setSink to materialize, setForward to fuse).
func (s *Selection) pipe(ec *ExecContext, inputs []*IndexedTable) (*pipeline, error) {
	p := newPipeline(ec, newCtxLayout(inputs[0]))
	p.residual = s.Residual
	return p, nil
}

// scan returns the morsel scan body over the resolved inputs.
func (s *Selection) scan(inputs []*IndexedTable) scanFn {
	in := inputs[0]
	return func(p *pipeline, lo, hi uint64, whole bool) {
		pred := s.Pred
		if !whole {
			pred = intersectPred(pred, lo, hi)
		}
		feedScan(p, in, pred)
	}
}

// bounds returns the morsel interval: with a predicate, morsels partition
// its envelope instead of the data bounds, because the scan clips every
// morsel to the predicate anyway.
func (s *Selection) bounds(inputs []*IndexedTable) boundsFn {
	in := inputs[0]
	return func() (uint64, uint64, bool) {
		if lo, hi, ok := predEnvelope(s.Pred); ok {
			return lo, hi, true
		}
		return idxBounds(in.Idx)
	}
}

func (s *Selection) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	newPart := func(spec *OutputSpec, rec *arena.Recycler) (*pipeline, *IndexedTable, error) {
		p, err := s.pipe(ec, inputs)
		if err != nil {
			return nil, nil, err
		}
		p.rec = rec
		out, err := p.setSink(spec)
		if err != nil {
			return nil, nil, err
		}
		return p, out, nil
	}
	return runMorsels(ec, &s.Out, s.bounds(inputs), newPart, s.scan(inputs))
}

// feedScan scans input 0's qualifying key ranges into the pipeline. A nil
// predicate scans everything through the plain iterator (the serial fast
// path); morsel scans pass their pre-clipped ranges.
func feedScan(p *pipeline, in *IndexedTable, pred KeyPred) {
	comp := in.Key.Composer()
	ctx := make([]uint64, p.layout.width)
	scan := func(k uint64, vals *duplist.List) bool {
		if p.aborted() {
			return false // query cancelled; the partial output is discarded
		}
		p.layout.fillKey(ctx, 0, k, comp)
		if len(in.Cols) == 0 {
			for n := 0; n < vals.Len(); n++ {
				p.feed(ctx)
			}
			return true
		}
		vals.Scan(func(row []uint64) bool {
			p.layout.fillRow(ctx, 0, row)
			p.feed(ctx)
			return true
		})
		return true
	}
	if pred == nil {
		in.Idx.Iterate(scan)
		return
	}
	for _, r := range pred {
		in.Idx.Range(r.Lo, r.Hi, scan)
	}
}

// An Assist attaches one assisting index to a composed join (paper
// Section 4.2): for every combination, ProbeWith's value is looked up in
// the assisting index (through the joinbuffer); misses drop the
// combination, hits extend it with the assisting rows.
type Assist struct {
	Input Operator
	// ProbeWith locates the probe key among the earlier inputs. Input
	// ordinals: 0 = left main, 1 = right main, 2+i = assist i.
	ProbeWith Ref
}

// Join is the n-ary multi-way/star join operator (paper Section 4.2), and
// with no assists the plain 2-way join. The two main inputs must be
// indexed on the join key; they are joined with the synchronous index scan,
// matching content nodes produce the cross product of their tuples, and
// each assisting index then filters/extends the combinations. The output
// is built with grouping/aggregation as a side effect when Out.Fold is set
// (the join-group of the paper's plans).
type Join struct {
	Left, Right Operator
	Assists     []Assist
	// Residual, if non-nil, filters combinations right after the main
	// match, before any assist probes.
	Residual func(ctx []uint64) bool
	Out      OutputSpec
}

// Label implements Operator.
func (j *Join) Label() string {
	return fmt.Sprintf("⋈%d→%s", 2+len(j.Assists), j.Out.Name)
}

// Children implements Operator.
func (j *Join) Children() []Operator {
	ops := []Operator{j.Left, j.Right}
	for _, a := range j.Assists {
		ops = append(ops, a.Input)
	}
	return ops
}

// pipe builds the join's probe pipeline (assist stages only — the mains
// are fed by the synchronous scan); the caller attaches the sink.
func (j *Join) pipe(ec *ExecContext, inputs []*IndexedTable) (*pipeline, error) {
	layout := newCtxLayout(inputs...)
	p := newPipeline(ec, layout)
	for i, a := range j.Assists {
		off, err := layout.resolve(a.ProbeWith)
		if err != nil {
			return nil, fmt.Errorf("core: %s assist %d: %w", j.Label(), i, err)
		}
		p.addProbe(2+i, off)
	}
	return p, nil
}

// scan returns the morsel scan body: the synchronous index scan over the
// two main inputs, cross-producting matching content nodes.
func (j *Join) scan(inputs []*IndexedTable) scanFn {
	left, right := inputs[0], inputs[1]
	return func(p *pipeline, lo, hi uint64, whole bool) {
		lComp, rComp := left.Key.Composer(), right.Key.Composer()
		ctx := make([]uint64, p.layout.width)
		feedPair := func(ctx []uint64) {
			if j.Residual == nil || j.Residual(ctx) {
				p.feedStage(0, ctx)
			}
		}
		visit := func(k uint64, lv, rv *duplist.List) bool {
			if p.aborted() {
				return false // query cancelled; the partial output is discarded
			}
			p.layout.fillKey(ctx, 0, k, lComp)
			p.layout.fillKey(ctx, 1, k, rComp)
			// Cross product of the matching content nodes, nested-loop style.
			if len(left.Cols) == 0 {
				for n := 0; n < lv.Len(); n++ {
					crossRight(p.layout, ctx, right, rv, feedPair)
				}
				return true
			}
			lv.Scan(func(lrow []uint64) bool {
				p.layout.fillRow(ctx, 0, lrow)
				crossRight(p.layout, ctx, right, rv, feedPair)
				return true
			})
			return true
		}
		if whole {
			SyncScan(left.Idx, right.Idx, visit)
		} else {
			syncScanKeyRange(left.Idx, right.Idx, lo, hi, visit)
		}
	}
}

// bounds returns the synchronous scan's morsel interval.
func (j *Join) bounds(inputs []*IndexedTable) boundsFn {
	left, right := inputs[0], inputs[1]
	return func() (uint64, uint64, bool) { return syncScanBounds(left.Idx, right.Idx) }
}

func (j *Join) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	newPart := func(spec *OutputSpec, rec *arena.Recycler) (*pipeline, *IndexedTable, error) {
		p, err := j.pipe(ec, inputs)
		if err != nil {
			return nil, nil, err
		}
		p.rec = rec
		out, err := p.setSink(spec)
		if err != nil {
			return nil, nil, err
		}
		return p, out, nil
	}
	return runMorsels(ec, &j.Out, j.bounds(inputs), newPart, j.scan(inputs))
}

func crossRight(layout ctxLayout, ctx []uint64, right *IndexedTable, rv *duplist.List, feed func([]uint64)) {
	if len(right.Cols) == 0 {
		for n := 0; n < rv.Len(); n++ {
			feed(ctx)
		}
		return
	}
	rv.Scan(func(rrow []uint64) bool {
		layout.fillRow(ctx, 1, rrow)
		feed(ctx)
		return true
	})
}

// SelectJoin is the composed heterogeneous operator (paper Section 4.3): a
// selection whose qualifying tuples are not materialized into an
// intermediate index but directly probed into the successive join. The
// synchronous index scan is not applicable — the selection input is sorted
// on the selection predicate, not the join key — but the prefix trees' high
// point-read performance (batched through the selectionbuffer) makes the
// composition profitable whenever the selection alone would materialize a
// large intermediate result.
type SelectJoin struct {
	// SelInput is the selection's input (input ordinal 0).
	SelInput Operator
	// Pred and Residual are the selection predicate on SelInput's key
	// and payloads.
	Pred     KeyPred
	Residual func(ctx []uint64) bool
	// Main is the join's other main input (ordinal 1), probed on
	// ProbeMainWith (an attribute of input 0).
	Main          Operator
	ProbeMainWith Ref
	// MainResidual, if non-nil, filters combinations right after the
	// main probe — i.e. as soon as Main's attributes are available but
	// before any assisting index is touched.
	MainResidual func(ctx []uint64) bool
	// Assists are additional star-join inputs (ordinals 2+i).
	Assists []Assist
	Out     OutputSpec
}

// Label implements Operator.
func (sj *SelectJoin) Label() string {
	return fmt.Sprintf("σ⋈%d→%s", 2+len(sj.Assists), sj.Out.Name)
}

// Children implements Operator.
func (sj *SelectJoin) Children() []Operator {
	ops := []Operator{sj.SelInput, sj.Main}
	for _, a := range sj.Assists {
		ops = append(ops, a.Input)
	}
	return ops
}

// pipe builds the select-join's probe pipeline: the main probe at stage
// 0, assists after, with the selection residual at the pipeline entry and
// the main residual between the main probe and the first assist.
func (sj *SelectJoin) pipe(ec *ExecContext, inputs []*IndexedTable) (*pipeline, error) {
	layout := newCtxLayout(inputs...)
	p := newPipeline(ec, layout)
	mainOff, err := layout.resolve(sj.ProbeMainWith)
	if err != nil {
		return nil, fmt.Errorf("core: %s main probe: %w", sj.Label(), err)
	}
	p.addProbe(1, mainOff)
	for i, a := range sj.Assists {
		off, err := layout.resolve(a.ProbeWith)
		if err != nil {
			return nil, fmt.Errorf("core: %s assist %d: %w", sj.Label(), i, err)
		}
		p.addProbe(2+i, off)
	}
	p.residual = sj.Residual
	p.setFilter(1, sj.MainResidual)
	return p, nil
}

// scan returns the morsel scan body over the selection input.
func (sj *SelectJoin) scan(inputs []*IndexedTable) scanFn {
	sel := inputs[0]
	return func(p *pipeline, lo, hi uint64, whole bool) {
		pred := sj.Pred
		if !whole {
			pred = intersectPred(pred, lo, hi)
		}
		feedScan(p, sel, pred)
	}
}

// bounds returns the selection scan's morsel interval. See
// Selection.bounds: the predicate envelope stands in for the data bounds.
func (sj *SelectJoin) bounds(inputs []*IndexedTable) boundsFn {
	sel := inputs[0]
	return func() (uint64, uint64, bool) {
		if lo, hi, ok := predEnvelope(sj.Pred); ok {
			return lo, hi, true
		}
		return idxBounds(sel.Idx)
	}
}

func (sj *SelectJoin) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	newPart := func(spec *OutputSpec, rec *arena.Recycler) (*pipeline, *IndexedTable, error) {
		p, err := sj.pipe(ec, inputs)
		if err != nil {
			return nil, nil, err
		}
		p.rec = rec
		out, err := p.setSink(spec)
		if err != nil {
			return nil, nil, err
		}
		return p, out, nil
	}
	return runMorsels(ec, &sj.Out, sj.bounds(inputs), newPart, sj.scan(inputs))
}

// Intersect is the set intersection operator used when conjunctive
// predicates are decomposed into separate selections over record-identifier
// indexes (paper Section 4.1). Both inputs must be indexed on the same key
// (typically the rid); matching keys emit the cross product of their rows,
// exactly like a 2-way join — which is what the intersect physically is.
type Intersect struct {
	A, B Operator
	Out  OutputSpec
}

// Label implements Operator.
func (op *Intersect) Label() string { return "∩→" + op.Out.Name }

// Children implements Operator.
func (op *Intersect) Children() []Operator { return []Operator{op.A, op.B} }

// asJoin returns the 2-way join the intersect physically is; the fused
// execution path reuses the join's pipe and scan through it.
func (op *Intersect) asJoin() *Join { return &Join{Out: op.Out} }

func (op *Intersect) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	return op.asJoin().run(ec, inputs)
}

// UnionDistinct is the distinct-union set operator (paper Section 4.1).
// Both inputs must share the key spec and payload layout; each key of
// either input appears exactly once in the output, keeping the first row
// encountered (rows under one key are duplicates by construction when the
// inputs are rid-keyed selection results).
type UnionDistinct struct {
	A, B Operator
	Out  OutputSpec
}

// Label implements Operator.
func (op *UnionDistinct) Label() string { return "∪→" + op.Out.Name }

// Children implements Operator.
func (op *UnionDistinct) Children() []Operator { return []Operator{op.A, op.B} }

func (op *UnionDistinct) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	a, b := inputs[0], inputs[1]
	if len(a.Cols) != len(b.Cols) {
		return nil, fmt.Errorf("core: union inputs have different payload widths")
	}
	spec := op.Out
	if spec.Fold != nil {
		return nil, fmt.Errorf("core: union output cannot fold")
	}
	spec.Fold = func(dst, src []uint64) {} // distinct: keep the first row per key
	layout := newCtxLayout(a)
	p := newPipeline(ec, layout)
	out, err := p.setSink(&spec)
	if err != nil {
		return nil, err
	}
	for _, in := range []*IndexedTable{a, b} {
		l := newCtxLayout(in)
		comp := in.Key.Composer()
		ctx := make([]uint64, l.width)
		in.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
			if p.aborted() {
				return false // query cancelled; the partial output is discarded
			}
			l.fillKey(ctx, 0, k, comp)
			if len(in.Cols) == 0 {
				p.snk.feed(ctx, p.bufSize)
				return true
			}
			vals.Scan(func(row []uint64) bool {
				l.fillRow(ctx, 0, row)
				p.snk.feed(ctx, p.bufSize)
				return true
			})
			return true
		})
	}
	if err := ec.err(); err != nil {
		return nil, err
	}
	p.finish()
	ec.noteSink(p)
	return out, nil
}

func mustResolve(l ctxLayout, r Ref) int {
	off, err := l.resolve(r)
	if err != nil {
		panic(err)
	}
	return off
}

// CtxOffsets resolves attribute references against the context layout an
// operator with the given inputs will use; plan builders use it to compile
// Residual filters and Computed expressions. The inputs must be the
// operator's input tables in ordinal order.
func CtxOffsets(inputs []*IndexedTable, refs ...Ref) []int {
	l := newCtxLayout(inputs...)
	offs := make([]int, len(refs))
	for i, r := range refs {
		offs[i] = mustResolve(l, r)
	}
	return offs
}
