package ssb

import (
	"context"
	"fmt"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// PlanOptions are the physical/logical plan knobs of the paper's
// demonstrator (Appendix A): whether selections are integrated into join
// operators and the maximum multi-way join arity. They shape the plan
// only; RunQPPT takes the core.Env and core.Options it executes with.
type PlanOptions struct {
	// UseSelectJoin integrates dimension selections into the successive
	// join operator where the plan allows it (paper Section 4.3).
	UseSelectJoin bool
	// JoinArity caps the number of tables joined by one composed join
	// operator (2, 3, 4, 5); 0 means unlimited (full multi-way). The
	// sweep reproduces Figure 9 on query 4.1.
	JoinArity int
	// DecomposeSelections runs conjunctive fact restrictions as separate
	// selection operators over single-attribute indexes keyed on the
	// record identifier, combined by the intersect set operator (paper
	// Section 4.1). Honored by the Q1.x plans; implies no select-join.
	DecomposeSelections bool
}

// DefaultPlanOptions mirror the paper's preferred configuration: composed
// select-joins on, unlimited join arity.
func DefaultPlanOptions() PlanOptions {
	return PlanOptions{UseSelectJoin: true}
}

// BuildPlan constructs the QPPT execution plan for a query.
func (ds *Dataset) BuildPlan(qid string, opt PlanOptions) (*core.Plan, error) {
	switch qid {
	case "1.1":
		return ds.planQ1(opt, datePredYear(ds, 1993), 1, 3, 0, 24), nil
	case "1.2":
		return ds.planQ1(opt, datePredYearMonth(ds, 199401), 4, 6, 26, 35), nil
	case "1.3":
		return ds.planQ1(opt, datePredYearWeek(ds, 1994, 6), 5, 7, 26, 35), nil
	case "2.1":
		return ds.planQ2(opt, ds.partSel("p_category", ds.strPoint(ds.Part, "p_category", "MFGR#12")), "AMERICA"), nil
	case "2.2":
		return ds.planQ2(opt, ds.partSel("p_brand1", ds.strRange(ds.Part, "p_brand1", "MFGR#2221", "MFGR#2228")), "ASIA"), nil
	case "2.3":
		return ds.planQ2(opt, ds.partSel("p_brand1", ds.strPoint(ds.Part, "p_brand1", "MFGR#2221")), "EUROPE"), nil
	case "3.1":
		return ds.planQ3(opt,
			dimSel{ds.Customer.MustIndex([]string{"c_region"}, "c_custkey", "c_nation"), ds.strPoint(ds.Customer, "c_region", "ASIA"), "c_custkey", "c_nation"},
			dimSel{ds.Supplier.MustIndex([]string{"s_region"}, "s_suppkey", "s_nation"), ds.strPoint(ds.Supplier, "s_region", "ASIA"), "s_suppkey", "s_nation"},
			dimSel{ds.Date.MustIndex([]string{"d_year"}, "d_datekey", "d_weeknuminyear"), core.Between(1992, 1997), "d_datekey", "d_year"})
	case "3.2":
		return ds.planQ3(opt,
			dimSel{ds.Customer.MustIndex([]string{"c_nation"}, "c_custkey", "c_city"), ds.strPoint(ds.Customer, "c_nation", "UNITED STATES"), "c_custkey", "c_city"},
			dimSel{ds.Supplier.MustIndex([]string{"s_nation"}, "s_suppkey", "s_city"), ds.strPoint(ds.Supplier, "s_nation", "UNITED STATES"), "s_suppkey", "s_city"},
			dimSel{ds.Date.MustIndex([]string{"d_year"}, "d_datekey", "d_weeknuminyear"), core.Between(1992, 1997), "d_datekey", "d_year"})
	case "3.3", "3.4":
		datePred := core.Between(1992, 1997)
		dateIdx := ds.Date.MustIndex([]string{"d_year"}, "d_datekey", "d_weeknuminyear")
		if qid == "3.4" {
			datePred = ds.strPoint(ds.Date, "d_yearmonth", "Dec1997")
			dateIdx = ds.Date.MustIndex([]string{"d_yearmonth"}, "d_datekey", "d_year")
		}
		return ds.planQ3(opt,
			dimSel{ds.Customer.MustIndex([]string{"c_city"}, "c_custkey"), ds.strIn(ds.Customer, "c_city", "UNITED KI1", "UNITED KI5"), "c_custkey", "c_city"},
			dimSel{ds.Supplier.MustIndex([]string{"s_city"}, "s_suppkey"), ds.strIn(ds.Supplier, "s_city", "UNITED KI1", "UNITED KI5"), "s_suppkey", "s_city"},
			dimSel{dateIdx, datePred, "d_datekey", "d_year"})
	case "4.1":
		return ds.planQ41(opt)
	case "4.2":
		return ds.planQ42(opt)
	case "4.3":
		return ds.planQ43(opt)
	}
	return nil, fmt.Errorf("ssb: unknown query %q", qid)
}

// RunQPPT builds the hand-written QPPT plan for a query and executes it
// on env (see core.Env.Run) with the per-query execution options,
// returning the normalized result and, when requested via
// exec.CollectStats, the per-operator statistics.
func (ds *Dataset) RunQPPT(ctx context.Context, env *core.Env, qid string, opt PlanOptions, exec core.Options) (*QueryResult, *core.PlanStats, error) {
	plan, err := ds.BuildPlan(qid, opt)
	if err != nil {
		return nil, nil, err
	}
	out, stats, err := env.Run(ctx, plan, exec)
	if err != nil {
		return nil, nil, err
	}
	return ds.normalizeQPPT(qid, out), stats, nil
}

// normalizeQPPT converts the result index into the query's normalized
// row layout and order.
func (ds *Dataset) normalizeQPPT(qid string, out *core.IndexedTable) *QueryResult {
	res := core.Extract(out)
	qr := &QueryResult{Attrs: querySchema(qid)}
	switch qid {
	case "1.1", "1.2", "1.3":
		// Keyless single group: extraction yields zero key fields plus the
		// one aggregate column; an empty index means sum 0.
		if len(res.Rows) == 0 {
			qr.Rows = [][]uint64{{0}}
		} else {
			qr.Rows = [][]uint64{{res.Rows[0][0]}}
		}
	case "2.1", "2.2", "2.3", "4.1", "4.2", "4.3":
		// Group key order == ORDER BY: rows come out of the prefix tree
		// already sorted (paper Section 3).
		qr.Rows = res.Rows
	case "3.1", "3.2", "3.3", "3.4":
		// Index key (d_year, c, s) → output layout (c, s, d_year),
		// ordered by d_year asc, revenue desc.
		qr.Rows = project(res.Rows, 1, 2, 0, 3)
		orderRows(qr.Rows, 2, -4)
	}
	return qr
}

// strPoint builds a point predicate from a string constant; constants
// missing from tiny generated dictionaries yield an empty predicate.
func (ds *Dataset) strPoint(ti *catalog.TableInfo, col, s string) core.KeyPred {
	if c, ok := ti.Dict(col).Code(s); ok {
		return core.Point(c)
	}
	return core.KeyPred{{Lo: 1, Hi: 0}} // matches nothing
}

// strRange builds a string BETWEEN predicate via the order-preserving
// dictionary.
func (ds *Dataset) strRange(ti *catalog.TableInfo, col, lo, hi string) core.KeyPred {
	d := ti.Dict(col)
	cl, okL := d.CeilCode(lo)
	ch, okH := d.FloorCode(hi)
	if !okL || !okH || cl > ch {
		return core.KeyPred{{Lo: 1, Hi: 0}}
	}
	return core.Between(cl, ch)
}

// strIn builds an IN predicate over string constants.
func (ds *Dataset) strIn(ti *catalog.TableInfo, col string, vals ...string) core.KeyPred {
	var p core.KeyPred
	for _, s := range vals {
		if c, ok := ti.Dict(col).Code(s); ok {
			p = append(p, core.KeyRange{Lo: c, Hi: c})
		}
	}
	if len(p) == 0 {
		return core.KeyPred{{Lo: 1, Hi: 0}}
	}
	return p
}

// datePred bundles a date-dimension selection entry point.
type datePredSpec struct {
	idx      *core.IndexedTable
	pred     core.KeyPred
	residual func(ctx []uint64) bool // e.g. the week filter of Q1.3
}

func datePredYear(ds *Dataset, year uint64) datePredSpec {
	return datePredSpec{
		idx:  ds.Date.MustIndex([]string{"d_year"}, "d_datekey", "d_weeknuminyear"),
		pred: core.Point(year),
	}
}

func datePredYearMonth(ds *Dataset, ym uint64) datePredSpec {
	return datePredSpec{
		idx:  ds.Date.MustIndex([]string{"d_yearmonthnum"}, "d_datekey"),
		pred: core.Point(ym),
	}
}

func datePredYearWeek(ds *Dataset, year, week uint64) datePredSpec {
	idx := ds.Date.MustIndex([]string{"d_year"}, "d_datekey", "d_weeknuminyear")
	weekOff := core.CtxOffsets([]*core.IndexedTable{idx}, core.Ref{Input: 0, Attr: "d_weeknuminyear"})[0]
	return datePredSpec{
		idx:      idx,
		pred:     core.Point(year),
		residual: func(ctx []uint64) bool { return ctx[weekOff] == week },
	}
}

// planQ1 builds the Q1.x plans: date selection, lineorder restriction on
// discount and quantity, keyless sum(extendedprice*discount).
//
// With select-join the whole query is one composed select-join-group
// operator probing the lineorder-by-orderdate index per qualifying date
// (Figure 8, "DexterDB w/ Select-Join"). Without it, a separate selection
// materializes the large qualifying-lineorder intermediate index keyed on
// orderdate, which a 2-way join-group then consumes.
func (ds *Dataset) planQ1(opt PlanOptions, date datePredSpec, dLo, dHi, qLo, qHi uint64) *core.Plan {
	loMain := ds.Lineorder.MustIndex([]string{"lo_orderdate"}, "lo_quantity", "lo_discount", "lo_extendedprice")
	odBits := ds.Lineorder.Bits("lo_orderdate")

	if opt.DecomposeSelections {
		return ds.planQ1Decomposed(date, dLo, dHi, qLo, qHi, odBits)
	}
	if opt.UseSelectJoin {
		offs := core.CtxOffsets([]*core.IndexedTable{date.idx, loMain},
			core.Ref{Input: 1, Attr: "lo_discount"},
			core.Ref{Input: 1, Attr: "lo_quantity"},
			core.Ref{Input: 1, Attr: "lo_extendedprice"})
		dOff, qOff, eOff := offs[0], offs[1], offs[2]
		sj := &core.SelectJoin{
			SelInput:      &core.Base{Table: date.idx},
			Pred:          date.pred,
			Residual:      date.residual,
			Main:          &core.Base{Table: loMain},
			ProbeMainWith: core.Ref{Input: 0, Attr: "d_datekey"},
			MainResidual: func(ctx []uint64) bool {
				return ctx[dOff] >= dLo && ctx[dOff] <= dHi && ctx[qOff] >= qLo && ctx[qOff] <= qHi
			},
			Out: core.OutputSpec{
				Name:     "Γ_revenue",
				Key:      core.KeySpec{},
				Cols:     []string{"revenue"},
				ColExprs: []core.RowExpr{core.Computed(func(ctx []uint64) uint64 { return ctx[eOff] * ctx[dOff] })},
				Fold:     core.FoldSum(0),
			},
		}
		return &core.Plan{Root: sj}
	}

	// Without select-join: selection over the multidimensional
	// (discount, quantity) index, materialized keyed on orderdate.
	loMulti := ds.Lineorder.MustIndex([]string{"lo_discount", "lo_quantity"}, "lo_orderdate", "lo_extendedprice")
	comp := loMulti.Key.Composer()
	var pred core.KeyPred
	for d := dLo; d <= dHi; d++ {
		pred = append(pred, core.KeyRange{Lo: comp.Compose(d, qLo), Hi: comp.Compose(d, qHi)})
	}
	selOffs := core.CtxOffsets([]*core.IndexedTable{loMulti},
		core.Ref{Input: 0, Attr: "lo_extendedprice"},
		core.Ref{Input: 0, Attr: "lo_discount"})
	eOff, dOff := selOffs[0], selOffs[1]
	selLine := &core.Selection{
		Input: &core.Base{Table: loMulti},
		Pred:  pred,
		Out: core.OutputSpec{
			Name:     "σ_lineorder",
			Key:      core.SimpleKey("lo_orderdate", odBits),
			KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_orderdate"}},
			Cols:     []string{"part_rev"},
			ColExprs: []core.RowExpr{core.Computed(func(ctx []uint64) uint64 { return ctx[eOff] * ctx[dOff] })},
		},
	}
	selDate := &core.Selection{
		Input:    &core.Base{Table: date.idx},
		Pred:     date.pred,
		Residual: date.residual,
		Out: core.OutputSpec{
			Name:    "σ_date",
			Key:     core.SimpleKey("d_datekey", ds.Date.Bits("d_datekey")),
			KeyRefs: []core.Ref{{Input: 0, Attr: "d_datekey"}},
		},
	}
	join := &core.Join{
		Left:  selLine,
		Right: selDate,
		Out: core.OutputSpec{
			Name:     "Γ_revenue",
			Key:      core.KeySpec{},
			Cols:     []string{"revenue"},
			ColExprs: []core.RowExpr{core.Attr(0, "part_rev")},
			Fold:     core.FoldSum(0),
		},
	}
	return &core.Plan{Root: join}
}

// planQ1Decomposed is the Section 4.1 alternative for conjunctive
// predicates without a multidimensional index: one selection operator per
// predicate, each over a single-attribute base index and producing an
// index on the record identifier; the intersect set operator (physically a
// 2-way join on the rid, using the synchronous index scan) combines them
// and builds the orderdate-keyed index the join-group requests.
func (ds *Dataset) planQ1Decomposed(date datePredSpec, dLo, dHi, qLo, qHi uint64, odBits uint) *core.Plan {
	ridBits := ds.Lineorder.Bits(catalog.RIDCol)
	// σ per predicate: discount carries everything later operators need;
	// quantity is a pure rid filter.
	discIdx := ds.Lineorder.MustIndex([]string{"lo_discount"}, "lo_orderdate", "lo_extendedprice")
	qtyIdx := ds.Lineorder.MustIndex([]string{"lo_quantity"})
	selDisc := &core.Selection{
		Input: &core.Base{Table: discIdx},
		Pred:  core.Between(dLo, dHi),
		Out: core.OutputSpec{
			Name:    "σ_discount",
			Key:     core.SimpleKey(catalog.RIDCol, ridBits),
			KeyRefs: []core.Ref{{Input: 0, Attr: catalog.RIDCol}},
			Cols:    []string{"lo_orderdate", "lo_extendedprice", "lo_discount"},
			ColExprs: []core.RowExpr{
				core.Attr(0, "lo_orderdate"), core.Attr(0, "lo_extendedprice"), core.Attr(0, "lo_discount"),
			},
		},
	}
	selQty := &core.Selection{
		Input: &core.Base{Table: qtyIdx},
		Pred:  core.Between(qLo, qHi),
		Out: core.OutputSpec{
			Name:    "σ_quantity",
			Key:     core.SimpleKey(catalog.RIDCol, ridBits),
			KeyRefs: []core.Ref{{Input: 0, Attr: catalog.RIDCol}},
		},
	}
	shapes := []*core.IndexedTable{selDisc.Out.ShapeOf(), selQty.Out.ShapeOf()}
	offs := core.CtxOffsets(shapes,
		core.Ref{Input: 0, Attr: "lo_extendedprice"},
		core.Ref{Input: 0, Attr: "lo_discount"})
	eOff, dOff := offs[0], offs[1]
	inter := &core.Intersect{
		A: selDisc, B: selQty,
		Out: core.OutputSpec{
			Name:     "∩_orderdate",
			Key:      core.SimpleKey("lo_orderdate", odBits),
			KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_orderdate"}},
			Cols:     []string{"part_rev"},
			ColExprs: []core.RowExpr{core.Computed(func(ctx []uint64) uint64 { return ctx[eOff] * ctx[dOff] })},
		},
	}
	selDate := &core.Selection{
		Input:    &core.Base{Table: date.idx},
		Pred:     date.pred,
		Residual: date.residual,
		Out: core.OutputSpec{
			Name:    "σ_date",
			Key:     core.SimpleKey("d_datekey", ds.Date.Bits("d_datekey")),
			KeyRefs: []core.Ref{{Input: 0, Attr: "d_datekey"}},
		},
	}
	join := &core.Join{
		Left:  inter,
		Right: selDate,
		Out: core.OutputSpec{
			Name:     "Γ_revenue",
			Key:      core.KeySpec{},
			Cols:     []string{"revenue"},
			ColExprs: []core.RowExpr{core.Attr(0, "part_rev")},
			Fold:     core.FoldSum(0),
		},
	}
	return &core.Plan{Root: join}
}

// partSelSpec bundles the part-dimension entry point of the Q2.x queries.
type partSelSpec struct {
	idx  *core.IndexedTable
	pred core.KeyPred
}

func (ds *Dataset) partSel(keyCol string, pred core.KeyPred) partSelSpec {
	switch keyCol {
	case "p_brand1":
		return partSelSpec{ds.Part.MustIndex([]string{"p_brand1"}, "p_partkey"), pred}
	case "p_category":
		return partSelSpec{ds.Part.MustIndex([]string{"p_category"}, "p_partkey", "p_brand1"), pred}
	}
	panic("ssb: bad part selection column " + keyCol)
}

// planQ2 builds the Q2.x plans (Figure 5's shape): part and supplier
// selections, 3-way/star join against lineorder-by-partkey producing an
// index on orderdate, then a 2-way join-group with date producing the
// (d_year, p_brand1) grouped sum of revenue.
func (ds *Dataset) planQ2(opt PlanOptions, part partSelSpec, regionName string) *core.Plan {
	loMain := ds.Lineorder.MustIndex([]string{"lo_partkey"}, "lo_suppkey", "lo_orderdate", "lo_revenue")
	dateIdx := ds.Date.MustIndex([]string{"d_datekey"}, "d_year")
	odBits := ds.Lineorder.Bits("lo_orderdate")
	region := ds.strPoint(ds.Supplier, "s_region", regionName)

	selSupp := &core.Selection{
		Input: &core.Base{Table: ds.Supplier.MustIndex([]string{"s_region"}, "s_suppkey")},
		Pred:  region,
		Out: core.OutputSpec{
			Name:    "σ_supplier",
			Key:     core.SimpleKey("s_suppkey", ds.Supplier.Bits("s_suppkey")),
			KeyRefs: []core.Ref{{Input: 0, Attr: "s_suppkey"}},
		},
	}

	var star core.Operator
	if opt.UseSelectJoin {
		star = &core.SelectJoin{
			SelInput:      &core.Base{Table: part.idx},
			Pred:          part.pred,
			Main:          &core.Base{Table: loMain},
			ProbeMainWith: core.Ref{Input: 0, Attr: "p_partkey"},
			Assists: []core.Assist{{
				Input:     selSupp,
				ProbeWith: core.Ref{Input: 1, Attr: "lo_suppkey"},
			}},
			Out: core.OutputSpec{
				Name:     "σ⋈_orderdate",
				Key:      core.SimpleKey("lo_orderdate", odBits),
				KeyRefs:  []core.Ref{{Input: 1, Attr: "lo_orderdate"}},
				Cols:     []string{"p_brand1", "lo_revenue"},
				ColExprs: []core.RowExpr{core.Attr(0, "p_brand1"), core.Attr(1, "lo_revenue")},
			},
		}
	} else {
		selPart := &core.Selection{
			Input: &core.Base{Table: part.idx},
			Pred:  part.pred,
			Out: core.OutputSpec{
				Name:     "σ_part",
				Key:      core.SimpleKey("p_partkey", ds.Part.Bits("p_partkey")),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "p_partkey"}},
				Cols:     []string{"p_brand1"},
				ColExprs: []core.RowExpr{core.Attr(0, "p_brand1")},
			},
		}
		star = &core.Join{
			Left:  &core.Base{Table: loMain},
			Right: selPart,
			Assists: []core.Assist{{
				Input:     selSupp,
				ProbeWith: core.Ref{Input: 0, Attr: "lo_suppkey"},
			}},
			Out: core.OutputSpec{
				Name:     "⋈_orderdate",
				Key:      core.SimpleKey("lo_orderdate", odBits),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_orderdate"}},
				Cols:     []string{"p_brand1", "lo_revenue"},
				ColExprs: []core.RowExpr{core.Attr(1, "p_brand1"), core.Attr(0, "lo_revenue")},
			},
		}
	}
	final := &core.Join{
		Left:  star,
		Right: &core.Base{Table: dateIdx},
		Out: core.OutputSpec{
			Name:     "Γ_year_brand",
			Key:      core.GroupKey([]string{"d_year", "p_brand1"}, []uint{ds.Date.Bits("d_year"), ds.Part.Bits("p_brand1")}),
			KeyRefs:  []core.Ref{{Input: 1, Attr: "d_year"}, {Input: 0, Attr: "p_brand1"}},
			Cols:     []string{"revenue"},
			ColExprs: []core.RowExpr{core.Attr(0, "lo_revenue")},
			Fold:     core.FoldSum(0),
		},
	}
	return &core.Plan{Root: final}
}
