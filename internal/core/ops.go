package core

import (
	"fmt"
	"slices"
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
// multidimensional (composed-key) input index, or restrict the other
// attributes with Preds.
type Selection struct {
	Input Operator
	// Pred is the index-key predicate (union of ranges).
	Pred KeyPred
	// Preds restrict the scanned tuples further, each to the ones whose
	// attribute of the input (ordinal 0) lies in its KeyPred: a key
	// attribute is tested once per key, a payload column on each row.
	Preds []AttrPred
	Out   OutputSpec
}

// Label implements Operator.
func (s *Selection) Label() string { return "σ→" + s.Out.Name }

// Children implements Operator.
func (s *Selection) Children() []Operator { return []Operator{s.Input} }

func (s *Selection) run(ec *ExecContext, inputs []*IndexedTable) (*IndexedTable, error) {
	in := inputs[0]
	pipe := func() (*pipeline, error) {
		p := newPipeline(ec, newCtxLayout(in))
		return p, p.addPreds(s, s.Preds)
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
// path); morsel scans pass their pre-clipped ranges. Every leaf goes to
// the pipeline's scan visitor (pipeline.scanLeaf), built once.
func feedScan(p *pipeline, in *IndexedTable, pred KeyPred) {
	if pred == nil {
		in.Idx.Iterate(p.leaf)
		return
	}
	for _, r := range pred {
		in.Idx.Range(r.Lo, r.Hi, p.leaf)
	}
}

// scanLeaf feeds the tuples of lf, a leaf of input 0, into the pipeline.
// The scan's predicates on a key attribute are tested once per key; those
// on a payload column narrow the scan's own selection vector over at most
// fanVec rows of a run at a time, and only the survivors are fed. The
// vector is not the fan-out's: feeding a survivor can flush stage 0, whose
// fan-out rewrites p.vec.
func (p *pipeline) scanLeaf(lf *Leaf) bool {
	if p.poll.aborted() {
		return false // query cancelled; the partial output is discarded
	}
	ctx := p.scanCtx
	p.layout.fillKey(ctx, 0, lf.Key, p.scanComp)
	if !p.scan.keep(ctx) {
		p.dropped += lf.Vals.Len()
		return true
	}
	if p.scanVec == nil {
		lf.Vals.Scan(func(row []uint64) bool {
			p.layout.fillRow(ctx, 0, row)
			p.feed(ctx)
			return true
		})
		return true
	}
	w := lf.Vals.Width()
	lf.Vals.Runs(func(run []uint64) bool {
		for len(run) > 0 {
			rows := run[:min(len(run), fanVec*w)]
			run = run[len(rows):]
			for _, i := range p.narrow(&p.scanVec, rows, w, nil, p.scan.rows()) {
				o := int(i) * w
				p.layout.fillRow(ctx, 0, rows[o:o+w])
				p.feed(ctx)
			}
		}
		return true
	})
	return true
}

// An Assist attaches one assisting index to a composed join (paper
// Section 4.2): every fact row the main probe yields looks up its
// ProbeWith value in the assisting index (through the joinbuffer); misses
// drop the combination, hits extend it with the assisting rows.
type Assist struct {
	Input Operator
	// ProbeWith names the foreign key: a payload column of the main input
	// (ordinal 1). Any other name, a key attribute of the main input
	// included, is a plan error.
	ProbeWith string
}

// An AttrPred restricts one attribute of an operator input, a payload
// column or a key attribute, to a union of key ranges. The scanned input
// (ordinal 0) and a select-join's main input (ordinal 1) take predicates;
// any other input is a plan error.
type AttrPred struct {
	Ref  Ref
	Pred KeyPred
}

// SelectJoin is QPPT's one join operator, the composed select-join (paper
// Section 4.3): it scans SelInput's qualifying key ranges, all of SelInput
// when Pred is nil, and probes each qualifying tuple's ProbeMainWith value
// straight into Main through the joinbuffer, with no intermediate index
// between them. Main is the fact side of a star join: each fact row the
// main probe yields is looked up in every assist by the foreign key its
// ProbeWith names, so the assists filter and extend the combinations (the
// n-ary star join), and the output is built with grouping/aggregation as a
// side effect when Out.Fold is set (the join-group). With a nil Pred it is
// the join of two inputs indexed on the join key (Section 4.2), which the
// paper runs as a lockstep walk of both tries, the synchronous index scan;
// here the driving index's keys are looked up in the other input instead,
// with the same batched lookups and fan-out filters as any select-join.
type SelectJoin struct {
	// SelInput is the selection's input, the driving input (ordinal 0).
	SelInput Operator
	// Pred is the selection predicate on SelInput's key; a nil Pred
	// scans all of SelInput.
	Pred KeyPred
	// Main is the join's other main input (ordinal 1), probed on
	// ProbeMainWith (an attribute of input 0).
	Main          Operator
	ProbeMainWith Ref
	// Preds restrict SelInput's tuples, as a Selection's do, and the fact
	// rows the main probe yields before any assisting index is touched:
	// each keeps the rows whose attribute of its input lies in its
	// KeyPred. On Main, a payload column is tested on each row after the
	// assists' key filters, a key attribute once per hit.
	Preds []AttrPred
	// Assists are additional star-join inputs (ordinals 2+i), each probed
	// with a foreign key of Main's rows.
	Assists []Assist
	Out     OutputSpec
}

// Label implements Operator: ⋈n→out for a join of the whole driving
// input, σ⋈n→out when a selection restricts it.
func (sj *SelectJoin) Label() string {
	op := "⋈"
	if sj.Pred != nil || slices.ContainsFunc(sj.Preds, func(p AttrPred) bool { return p.Ref.Input == 0 }) {
		op = "σ⋈"
	}
	return fmt.Sprintf("%s%d→%s", op, 2+len(sj.Assists), sj.Out.Name)
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
// 0, assists after, with the selection's predicates at the scan and the
// fact predicates at the fan-out.
func (sj *SelectJoin) pipe(ec *ExecContext, inputs []*IndexedTable) (*pipeline, error) {
	layout := newCtxLayout(inputs...)
	p := newPipeline(ec, layout)
	mainOff, err := layout.resolve(sj.ProbeMainWith)
	if err != nil {
		return nil, fmt.Errorf("core: %s main probe: %w", sj.Label(), err)
	}
	p.addProbe(1, -1, mainOff)
	fact := inputs[1]
	for i, a := range sj.Assists {
		col := fact.Col(a.ProbeWith)
		if col < 0 {
			return nil, fmt.Errorf("core: %s assist %d (%s): %q is not a payload column of the main input %s",
				sj.Label(), i, a.Input.Label(), a.ProbeWith, fact.Name)
		}
		p.addProbe(2+i, col, layout.colOff(1, col))
	}
	return p, p.addPreds(sj, sj.Preds)
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
// Computed expressions. The inputs must be the operator's input tables in
// ordinal order.
func CtxOffsets(inputs []*IndexedTable, refs ...Ref) []int {
	l := newCtxLayout(inputs...)
	offs := make([]int, len(refs))
	for i, r := range refs {
		offs[i] = mustResolve(l, r)
	}
	return offs
}
