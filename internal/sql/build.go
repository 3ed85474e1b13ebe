package sql

import (
	"context"
	"fmt"
	"slices"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// builder turns the analyzed statement into a physical QPPT plan.
type builder struct {
	ctx         context.Context // cancels the base-index builds planning triggers
	p           *Planner
	stmt        *SelectStmt
	opt         Options
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

// dimIndex picks the base index for a dimension: keyed on the primary
// restriction column (first in WHERE order) or on the join key when the
// dimension is unrestricted, partially clustered with everything the plan
// reads from it.
func (b *builder) dimIndex(d *dimInfo) (*core.IndexedTable, Cond, []Cond, error) {
	include := map[string]bool{d.joinKey: true}
	for _, c := range d.carries {
		include[c] = true
	}
	var primary Cond
	var residual []Cond
	if len(d.conds) > 0 {
		primary = d.conds[0]
		residual = d.conds[1:]
		for _, c := range residual {
			include[c.Col.Name] = true
		}
	}
	keyCol := d.joinKey
	if len(d.conds) > 0 {
		keyCol = primary.Col.Name
	}
	delete(include, keyCol)
	cols := sortedKeys(include)
	def := catalog.IndexDef{KeyCols: []string{keyCol}, Include: cols}
	idx, err := d.ti.BuildIndexCtx(b.ctx, def)
	if err != nil {
		return nil, Cond{}, nil, err
	}
	return idx, primary, residual, nil
}

// dimOperator builds the plan operator for a non-main dimension: a
// Selection for restricted dimensions, the base index directly otherwise.
func (b *builder) dimOperator(d *dimInfo) (core.Operator, error) {
	idx, primary, residual, err := b.dimIndex(d)
	if err != nil {
		return nil, err
	}
	if len(d.conds) == 0 {
		return &core.Base{Table: idx}, nil
	}
	pred, err := b.keyPred(d.ti, primary)
	if err != nil {
		return nil, err
	}
	res, err := b.residual(residual, d.ti, []*core.IndexedTable{idx}, 0)
	if err != nil {
		return nil, err
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
	return &core.Selection{Input: &core.Base{Table: idx}, Pred: pred, Residual: res, Out: out}, nil
}

// factIndex builds the fact base index keyed on the main dimension's
// foreign key with every attribute the plan reads clustered in.
func (b *builder) factIndex(main *dimInfo) (*core.IndexedTable, error) {
	include := map[string]bool{}
	for _, d := range b.dims {
		if d != main {
			include[d.fk] = true
		}
	}
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
	cols := sortedKeys(include)
	def := catalog.IndexDef{KeyCols: []string{main.fk}, Include: cols}
	return b.fact.BuildIndexCtx(b.ctx, def)
}

// buildStar assembles the star-join plan.
func (b *builder) buildStar() (*Statement, error) {
	main := b.dims[0]
	factIdx, err := b.factIndex(main)
	if err != nil {
		return nil, err
	}
	mainIdx, mainPrimary, mainResidual, err := b.dimIndex(main)
	if err != nil {
		return nil, err
	}

	useSJ := b.opt.UseSelectJoin && len(main.conds) > 0
	// Input ordinals: select-join → 0 = main dim, 1 = fact;
	// star join → 0 = fact, 1 = main dim. Assists follow at 2+i.
	factOrd, mainOrd := 1, 0
	if !useSJ {
		factOrd, mainOrd = 0, 1
	}
	main.ordinal = mainOrd

	// Shapes for offset resolution (inputs in ordinal order).
	var shapes []*core.IndexedTable
	mainShape := mainIdx
	if !useSJ && len(main.conds) > 0 {
		// The main dim enters the join through its selection output.
		mainShape = b.selShape(main)
	}
	if useSJ {
		shapes = []*core.IndexedTable{mainIdx, factIdx}
	} else {
		shapes = []*core.IndexedTable{factIdx, mainShape}
	}
	var assists []core.Assist
	for i, d := range b.dims[1:] {
		d.ordinal = 2 + i
		op, err := b.dimOperator(d)
		if err != nil {
			return nil, err
		}
		assists = append(assists, core.Assist{
			Input:     op,
			ProbeWith: core.Ref{Input: factOrd, Attr: d.fk},
		})
		shapes = append(shapes, b.assistShape(d))
	}

	out, err := b.outputSpec(factOrd, shapes)
	if err != nil {
		return nil, err
	}
	factRes, err := b.residual(b.restr[b.factName], b.fact, shapes[:factOrd+1], factOrd)
	if err != nil {
		return nil, err
	}

	var root core.Operator
	if useSJ {
		pred, err := b.keyPred(main.ti, mainPrimary)
		if err != nil {
			return nil, err
		}
		dimRes, err := b.residual(mainResidual, main.ti, []*core.IndexedTable{mainIdx}, 0)
		if err != nil {
			return nil, err
		}
		root = &core.SelectJoin{
			SelInput:      &core.Base{Table: mainIdx},
			Pred:          pred,
			Residual:      dimRes,
			Main:          &core.Base{Table: factIdx},
			ProbeMainWith: core.Ref{Input: 0, Attr: main.joinKey},
			MainResidual:  factRes,
			Assists:       assists,
			Out:           *out,
		}
	} else {
		var right core.Operator
		if len(main.conds) > 0 {
			right, err = b.dimOperator(main)
			if err != nil {
				return nil, err
			}
		} else {
			right = &core.Base{Table: mainIdx}
		}
		root = &core.Join{
			Left:     &core.Base{Table: factIdx},
			Right:    right,
			Residual: factRes,
			Assists:  assists,
			Out:      *out,
		}
	}
	return b.finish(&core.Plan{Root: root})
}

// buildSingleTable plans a query without joins: one selection (possibly
// grouping) over the fact table.
func (b *builder) buildSingleTable() (*Statement, error) {
	conds := b.restr[b.factName]
	include := map[string]bool{}
	for _, c := range b.factCarries {
		include[c] = true
	}
	for _, e := range b.aggExprs {
		collectCols(e, include)
	}
	var primary Cond
	var residual []Cond
	keyCol := ""
	if len(conds) > 0 {
		primary, residual = conds[0], conds[1:]
		keyCol = primary.Col.Name
		for _, c := range residual {
			include[c.Col.Name] = true
		}
	} else {
		// Unrestricted: scan any index; use the alphabetically first
		// needed column as the key so plans are deterministic.
		for c := range include {
			if keyCol == "" || c < keyCol {
				keyCol = c
			}
		}
		if keyCol == "" {
			return nil, fmt.Errorf("sql: empty query")
		}
	}
	delete(include, keyCol)
	cols := sortedKeys(include)
	def := catalog.IndexDef{KeyCols: []string{keyCol}, Include: cols}
	idx, err := b.fact.BuildIndexCtx(b.ctx, def)
	if err != nil {
		return nil, err
	}
	shapes := []*core.IndexedTable{idx}
	out, err := b.outputSpec(0, shapes)
	if err != nil {
		return nil, err
	}
	var pred core.KeyPred
	if len(conds) > 0 {
		if pred, err = b.keyPred(b.fact, primary); err != nil {
			return nil, err
		}
	}
	res, err := b.residual(residual, b.fact, shapes, 0)
	if err != nil {
		return nil, err
	}
	root := &core.Selection{Input: &core.Base{Table: idx}, Pred: pred, Residual: res, Out: *out}
	return b.finish(&core.Plan{Root: root})
}

// selShape is the layout of a restricted dimension's selection output.
func (b *builder) selShape(d *dimInfo) *core.IndexedTable {
	return core.Shape("σ_"+d.table, core.SimpleKey(d.joinKey, d.ti.Bits(d.joinKey)), d.carries)
}

// assistShape is the layout under which an assist dimension appears in the
// combination context.
func (b *builder) assistShape(d *dimInfo) *core.IndexedTable {
	if len(d.conds) > 0 {
		return b.selShape(d)
	}
	idx, _, _, err := b.dimIndex(d)
	if err != nil {
		panic(err) // already built successfully in dimOperator
	}
	return idx
}

// outputSpec assembles the aggregating output index description.
func (b *builder) outputSpec(factOrd int, shapes []*core.IndexedTable) (*core.OutputSpec, error) {
	out := &core.OutputSpec{Name: "Γ"}
	for i, g := range b.stmt.GroupBy {
		owner := b.groupOwner[i]
		ord := factOrd
		ti := b.fact
		if owner != b.factName {
			for _, d := range b.dims {
				if d.table == owner {
					ord, ti = d.ordinal, d.ti
				}
			}
		}
		out.Key.Attrs = append(out.Key.Attrs, g.Name)
		out.Key.Bits = append(out.Key.Bits, ti.Bits(g.Name))
		out.KeyRefs = append(out.KeyRefs, core.Ref{Input: ord, Attr: g.Name})
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
	if len(b.aggExprs) > 0 {
		out.Fold = core.FoldSum(folds...)
	}
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
