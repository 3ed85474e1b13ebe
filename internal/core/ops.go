package core

import (
	"fmt"

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
	// into the context are resolved with CtxOffsets.
	Residual func(ctx []uint64) bool
	Out      OutputSpec
}

// Label implements Operator.
func (s *Selection) Label() string { return "σ→" + s.Out.Name }

// Children implements Operator.
func (s *Selection) Children() []Operator { return []Operator{s.Input} }

func (s *Selection) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	in := inputs[0]
	pipe := func() (*pipeline, error) {
		p := newPipeline(ec, newCtxLayout(in))
		p.residual = s.Residual
		return p, nil
	}
	return runMorsels(ec, &s.Out, predBounds(s.Pred, in), pipe, predScan(s.Pred, in))
}

// predScan returns the morsel scan body of a predicate scan over in: a
// morsel scans the predicate's ranges clipped to its key interval.
func predScan(pred KeyPred, in *IndexedTable) scanFn {
	return func(p *pipeline, lo, hi uint64, whole bool) {
		ranges := pred
		if !whole {
			ranges = intersectPred(pred, lo, hi)
		}
		feedScan(p, in, ranges)
	}
}

// predBounds returns the morsel interval of a predicate scan over in: with
// a predicate, morsels partition its envelope instead of the data bounds,
// because the scan clips every morsel to the predicate anyway.
func predBounds(pred KeyPred, in *IndexedTable) boundsFn {
	return func() (uint64, uint64, bool) {
		if lo, hi, ok := predEnvelope(pred); ok {
			return lo, hi, true
		}
		return idxBounds(in.Idx)
	}
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
// are fed by the synchronous scan).
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

func (j *Join) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	bounds := func() (uint64, uint64, bool) { return syncScanBounds(inputs[0].Idx, inputs[1].Idx) }
	pipe := func() (*pipeline, error) { return j.pipe(ec, inputs) }
	return runMorsels(ec, &j.Out, bounds, pipe, j.scan(inputs))
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

func (sj *SelectJoin) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	sel := inputs[0]
	pipe := func() (*pipeline, error) { return sj.pipe(ec, inputs) }
	return runMorsels(ec, &sj.Out, predBounds(sj.Pred, sel), pipe, predScan(sj.Pred, sel))
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
