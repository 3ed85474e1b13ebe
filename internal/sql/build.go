package sql

import (
	"context"
	"fmt"
	"slices"

	"qppt/internal/catalog"
	"qppt/internal/core"
	"qppt/internal/key"
)

// builder turns the analyzed statement into a physical QPPT plan.
type builder struct {
	ctx         context.Context // cancels the base-index builds planning triggers
	p           *Planner
	stmt        *SelectStmt
	fact        *catalog.TableInfo
	factName    string
	dims        []*dimInfo // sorted most selective first
	restr       map[string][]Cond
	factCarries []string
	groupOwner  []string
	aggNames    []string
	aggExprs    []Expr
	tis         map[string]*catalog.TableInfo
}

func (b *builder) build() (*Statement, error) {
	if len(b.dims) == 0 {
		return b.buildSingleTable()
	}
	return b.buildStar()
}

// selIndex builds the base index a selection over ti scans and the
// selection's restrictions on it: keyed on the first of conds (WHERE
// order), the primary restriction, which becomes the scan's key
// predicate, or on fallback when conds is empty, and partially clustered
// with include and the columns of the later conds, which become the
// predicates on the scanned input. A later cond on the key column narrows
// the key predicate instead.
func (b *builder) selIndex(ti *catalog.TableInfo, conds []Cond, fallback string, include map[string]bool) (*core.IndexedTable, core.KeyPred, []core.AttrPred, error) {
	keyCol := fallback
	if len(conds) > 0 {
		keyCol = conds[0].Col.Name
		for _, c := range conds[1:] {
			include[c.Col.Name] = true
		}
	}
	delete(include, keyCol)
	def := catalog.IndexDef{KeyCols: []string{keyCol}, Include: sortedKeys(include)}
	idx, err := ti.BuildIndexCtx(b.ctx, def)
	if err != nil || len(conds) == 0 {
		return idx, nil, nil, err
	}
	pred, err := b.keyPred(ti, conds[0])
	if err != nil {
		return nil, nil, nil, err
	}
	preds, err := b.preds(nil, ti, 0, conds[1:])
	if err != nil {
		return nil, nil, nil, err
	}
	rest := preds[:0]
	for _, p := range preds {
		if p.Ref.Attr == keyCol {
			pred = intersectPreds(pred, p.Pred)
		} else {
			rest = append(rest, p)
		}
	}
	return idx, pred, rest, nil
}

// intersectPreds returns the values both a and b, sorted unions of
// disjoint ranges, hold, in the same form; "nothing matches" is one empty
// range, as keyPred writes it.
func intersectPreds(a, b core.KeyPred) core.KeyPred {
	var out core.KeyPred
	for len(a) > 0 && len(b) > 0 {
		if lo, hi := max(a[0].Lo, b[0].Lo), min(a[0].Hi, b[0].Hi); lo <= hi {
			out = append(out, core.KeyRange{Lo: lo, Hi: hi})
		}
		if a[0].Hi < b[0].Hi {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	if len(out) == 0 {
		return core.KeyPred{{Lo: 1, Hi: 0}}
	}
	return out
}

// preds appends to dst the predicates that conds, restrictions on ti's
// columns, put on the plan input of ordinal input.
func (b *builder) preds(dst []core.AttrPred, ti *catalog.TableInfo, input int, conds []Cond) ([]core.AttrPred, error) {
	preds := slices.Grow(dst, len(conds))
	for _, c := range conds {
		pred, err := b.keyPred(ti, c)
		if err != nil {
			return nil, err
		}
		preds = append(preds, core.AttrPred{Ref: core.Ref{Input: input, Attr: c.Col.Name}, Pred: pred})
	}
	return preds, nil
}

// dimIndex picks the base index for a dimension: keyed on its primary
// restriction or, when the dimension is unrestricted, on the join key,
// partially clustered with everything the plan reads from it.
func (b *builder) dimIndex(d *dimInfo) (*core.IndexedTable, core.KeyPred, []core.AttrPred, error) {
	include := map[string]bool{d.joinKey: true}
	for _, c := range d.carries {
		include[c] = true
	}
	return b.selIndex(d.ti, d.conds, d.joinKey, include)
}

// dimOperator builds the plan operator for a non-main dimension, and the
// shape under which it appears in the combination context: a Selection
// and its output for a restricted dimension, the base index otherwise.
func (b *builder) dimOperator(d *dimInfo) (core.Operator, *core.IndexedTable, error) {
	idx, pred, preds, err := b.dimIndex(d)
	if err != nil {
		return nil, nil, err
	}
	if len(d.conds) == 0 {
		return &core.Base{Table: idx}, idx, nil
	}
	out := core.OutputSpec{
		Name:    "σ_" + d.table,
		Key:     core.SimpleKey(d.joinKey, d.ti.Bits(d.joinKey)),
		KeyRefs: []core.Ref{{Input: 0, Attr: d.joinKey}},
	}
	for _, c := range d.carries {
		out.Cols = append(out.Cols, c)
		out.ColExprs = append(out.ColExprs, core.Attr(0, c))
	}
	sel := &core.Selection{Input: &core.Base{Table: idx}, Pred: pred, Preds: preds, Out: out}
	return sel, core.Shape(out.Name, out.Key, d.carries), nil
}

// factIndex builds the fact base index keyed on the main dimension's
// foreign key with every attribute the plan reads clustered in. An assist
// probes with a payload column, so the foreign key of every other
// dimension is one, even when it is the main dimension's too.
func (b *builder) factIndex(main *dimInfo) (*core.IndexedTable, error) {
	include := map[string]bool{}
	for _, c := range b.restr[b.factName] {
		include[c.Col.Name] = true
	}
	for _, c := range b.factCarries {
		include[c] = true
	}
	for _, e := range b.aggExprs {
		collectCols(e, include)
	}
	delete(include, main.fk)
	for _, d := range b.dims {
		if d != main {
			include[d.fk] = true
		}
	}
	def := catalog.IndexDef{KeyCols: []string{main.fk}, Include: sortedKeys(include)}
	return b.fact.BuildIndexCtx(b.ctx, def)
}

// buildStar assembles the star-join plan, a composed select-join (paper
// Section 4.3): input 0 is the main dimension, the most selective, input 1
// the fact, and the assists follow at 2+i. The main dimension is
// unrestricted only when no dimension has a restriction, on itself or on
// the fact's foreign key to it (plan moves those onto the join key); it
// then drives the join with no predicate, over its whole base index.
func (b *builder) buildStar() (*Statement, error) {
	main := b.dims[0]
	factIdx, err := b.factIndex(main)
	if err != nil {
		return nil, err
	}
	mainIdx, pred, preds, err := b.dimIndex(main)
	if err != nil {
		return nil, err
	}

	// Shapes for offset resolution (inputs in ordinal order).
	shapes := []*core.IndexedTable{mainIdx, factIdx}
	main.ordinal = 0
	var assists []core.Assist
	for i, d := range b.dims[1:] {
		d.ordinal = 2 + i
		op, shape, err := b.dimOperator(d)
		if err != nil {
			return nil, err
		}
		assists = append(assists, core.Assist{Input: op, ProbeWith: d.fk})
		shapes = append(shapes, shape)
	}

	out, err := b.outputSpec(1, shapes)
	if err != nil {
		return nil, err
	}
	if preds, err = b.preds(preds, b.fact, 1, b.restr[b.factName]); err != nil {
		return nil, err
	}
	return b.finish(&core.Plan{Root: &core.SelectJoin{
		SelInput:      &core.Base{Table: mainIdx},
		Pred:          pred,
		Main:          &core.Base{Table: factIdx},
		ProbeMainWith: core.Ref{Input: 0, Attr: main.joinKey},
		Preds:         preds,
		Assists:       assists,
		Out:           *out,
	}})
}

// buildSingleTable plans a query without joins: one selection (possibly
// grouping) over the fact table. An unrestricted one scans every row of
// whichever index holds its columns, so it reuses the first built index of
// the table that does (TableInfo.Covering) and builds one only when none
// does, keyed on the alphabetically first column it reads.
func (b *builder) buildSingleTable() (*Statement, error) {
	conds := b.restr[b.factName]
	include := map[string]bool{}
	for _, c := range b.factCarries {
		include[c] = true
	}
	for _, e := range b.aggExprs {
		collectCols(e, include)
	}
	var idx *core.IndexedTable
	var pred core.KeyPred
	var preds []core.AttrPred
	fallback := ""
	if len(conds) == 0 {
		cols := sortedKeys(include)
		if len(cols) == 0 {
			return nil, fmt.Errorf("sql: empty query")
		}
		idx, fallback = b.fact.Covering(cols), cols[0]
	}
	if idx == nil {
		var err error
		if idx, pred, preds, err = b.selIndex(b.fact, conds, fallback, include); err != nil {
			return nil, err
		}
	}
	out, err := b.outputSpec(0, []*core.IndexedTable{idx})
	if err != nil {
		return nil, err
	}
	root := &core.Selection{Input: &core.Base{Table: idx}, Pred: pred, Preds: preds, Out: *out}
	return b.finish(&core.Plan{Root: root})
}

// outputSpec assembles the aggregating output index description.
func (b *builder) outputSpec(factOrd int, shapes []*core.IndexedTable) (*core.OutputSpec, error) {
	out := &core.OutputSpec{Name: "Γ"}
	for i, g := range b.stmt.GroupBy {
		owner := b.groupOwner[i]
		ref := core.Ref{Input: factOrd, Attr: g.Name}
		ti := b.fact
		for _, d := range b.dims {
			if d.table != owner {
				continue
			}
			ti = d.ti
			if g.Name == d.joinKey {
				// Equal to the fact's foreign key under the join predicate.
				ref.Attr = d.fk
			} else {
				ref.Input = d.ordinal
			}
		}
		out.Key.Attrs = append(out.Key.Attrs, g.Name)
		out.Key.Bits = append(out.Key.Bits, ti.Bits(g.Name))
		out.KeyRefs = append(out.KeyRefs, ref)
		// The owning table's span bounds the attribute's values: a
		// foreign key read for a dimension's join key passes the join
		// only with the dimension's keys. A small domain lets the output
		// fold in a flat array.
		out.Domain = append(out.Domain, ti.Span(g.Name))
	}
	if len(out.Key.Bits) > 1 {
		// The result index composes its key from the GROUP BY columns,
		// which must fit one 64-bit key together.
		if _, err := key.NewComposer(out.Key.Bits...); err != nil {
			return nil, fmt.Errorf("sql: GROUP BY key too wide: %v", err)
		}
	}
	folds := make([]int, len(b.aggExprs))
	for i, e := range b.aggExprs {
		fn, err := compileExpr(e, factOrd, shapes)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, b.aggNames[i])
		out.ColExprs = append(out.ColExprs, core.Computed(fn))
		folds[i] = i
	}
	// Every statement aggregates or groups (a plain SELECT item must be
	// grouped), so the result keeps one row per key; with no aggregate
	// the fold sums nothing.
	out.Fold = core.FoldSum(folds...)
	return out, nil
}

// compileExpr compiles a fact-side scalar expression to a context function.
func compileExpr(e Expr, factOrd int, shapes []*core.IndexedTable) (func([]uint64) uint64, error) {
	switch x := e.(type) {
	case NumExpr:
		v := x.Val
		return func([]uint64) uint64 { return v }, nil
	case ColExpr:
		off := core.CtxOffsets(shapes[:factOrd+1], core.Ref{Input: factOrd, Attr: x.Col.Name})[0]
		return func(ctx []uint64) uint64 { return ctx[off] }, nil
	case BinExpr:
		l, err := compileExpr(x.L, factOrd, shapes)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, factOrd, shapes)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case '+':
			return func(ctx []uint64) uint64 { return l(ctx) + r(ctx) }, nil
		case '-':
			return func(ctx []uint64) uint64 { return l(ctx) - r(ctx) }, nil
		case '*':
			return func(ctx []uint64) uint64 { return l(ctx) * r(ctx) }, nil
		}
	}
	return nil, fmt.Errorf("sql: unsupported expression")
}

func collectCols(e Expr, into map[string]bool) {
	switch x := e.(type) {
	case ColExpr:
		into[x.Col.Name] = true
	case BinExpr:
		collectCols(x.L, into)
		collectCols(x.R, into)
	}
}

// sortedKeys lists a set's members in sorted order, so that a plan and the
// index definitions it builds do not depend on map iteration order.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
