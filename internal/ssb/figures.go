package ssb

import (
	"fmt"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// Every SSB query is planned from its SQL text (SQLTexts through
// sql.Planner). The two plans here are the exception: Figures 8 and 9
// measure plan shapes the planner does not build — a fact selection
// materialized before its join, and star joins capped below full arity.

// Figure8Plan is Q1.1 without the composed select-join (Figure 8, "w/o
// Select-Join"): a selection over the multidimensional (lo_discount,
// lo_quantity) index materializes the qualifying lineorder rows keyed on
// lo_orderdate, and a 2-way join-group with the year's dates sums them.
// The with-select-join side of the figure is the planner's plan of Q1.1;
// both return Q1.1's answer.
//
//qpptvet:ignore unreached Figure 8 is defined on this plan shape; only the root bench_test.go and the ssb e2e suites run it
func (ds *Dataset) Figure8Plan() *core.Plan {
	const dLo, dHi, qLo, qHi = 1, 3, 0, 24 // lo_discount between 1 and 3, lo_quantity < 25
	loMulti := ds.Lineorder.MustIndex([]string{"lo_discount", "lo_quantity"}, "lo_orderdate", "lo_extendedprice")
	comp := loMulti.Key.Composer()
	var pred core.KeyPred
	for d := uint64(dLo); d <= dHi; d++ {
		pred = append(pred, core.KeyRange{Lo: comp.Compose(d, qLo), Hi: comp.Compose(d, qHi)})
	}
	offs := core.CtxOffsets([]*core.IndexedTable{loMulti},
		core.Ref{Input: 0, Attr: "lo_extendedprice"},
		core.Ref{Input: 0, Attr: "lo_discount"})
	eOff, dOff := offs[0], offs[1]
	selLine := &core.Selection{
		Input: &core.Base{Table: loMulti},
		Pred:  pred,
		Out: core.OutputSpec{
			Name:     "σ_lineorder",
			Key:      core.SimpleKey("lo_orderdate", ds.Lineorder.Bits("lo_orderdate")),
			KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_orderdate"}},
			Cols:     []string{"part_rev"},
			ColExprs: []core.RowExpr{core.Computed(func(ctx []uint64) uint64 { return ctx[eOff] * ctx[dOff] })},
		},
	}
	selDate := dimSelection(ds.Date, ds.Date.MustIndex([]string{"d_year"}, "d_datekey"), core.Point(1993), "d_datekey", "")
	return &core.Plan{Root: &core.Join{
		Left:  selLine,
		Right: selDate,
		Out: core.OutputSpec{
			Name:     "Γ_revenue",
			Key:      core.KeySpec{},
			Cols:     []string{"revenue"},
			ColExprs: []core.RowExpr{core.Attr(0, "part_rev")},
			Fold:     core.FoldSum(0),
		},
	}}
}

// Figure9Plan is Q4.1 with every composed join capped at arity 2, 3 or 4
// (Figure 9's sweep). Each cap below the full 5-way star join chains
// another 2-way join, which materializes an intermediate keyed on the next
// join attribute. The uncapped 5-way join is the planner's plan of Q4.1
// without select-join; every arity returns Q4.1's answer.
//
//qpptvet:ignore unreached Figure 9 is defined on these plan shapes; only the root bench_test.go and the ssb e2e suites run them
func (ds *Dataset) Figure9Plan(arity int) *core.Plan {
	loMain := ds.Lineorder.MustIndex([]string{"lo_custkey"},
		"lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost")
	selCust := dimSelection(ds.Customer, ds.Customer.MustIndex([]string{"c_region"}, "c_custkey", "c_nation"),
		codes(ds.Customer, "c_region", "AMERICA"), "c_custkey", "c_nation")
	selSupp := dimSelection(ds.Supplier, ds.Supplier.MustIndex([]string{"s_region"}, "s_suppkey"),
		codes(ds.Supplier, "s_region", "AMERICA"), "s_suppkey", "")
	selPart := dimSelection(ds.Part, ds.Part.MustIndex([]string{"p_mfgr"}, "p_partkey", "p_brand1", "p_category"),
		codes(ds.Part, "p_mfgr", "MFGR#1", "MFGR#2"), "p_partkey", "")
	dateIdx := &core.Base{Table: ds.Date.MustIndex([]string{"d_datekey"}, "d_year")}
	odBits := ds.Lineorder.Bits("lo_orderdate")

	// Lineorder is input 0 of the first join at every arity.
	offs := core.CtxOffsets([]*core.IndexedTable{loMain},
		core.Ref{Input: 0, Attr: "lo_revenue"},
		core.Ref{Input: 0, Attr: "lo_supplycost"})
	rOff, scOff := offs[0], offs[1]
	profit := core.Computed(func(ctx []uint64) uint64 { return ctx[rOff] - ctx[scOff] })

	// partJoin joins an intermediate keyed on lo_partkey with the part
	// selection, producing an index keyed on lo_orderdate.
	partJoin := func(left core.Operator) *core.Join {
		return &core.Join{
			Left: left, Right: selPart,
			Out: core.OutputSpec{
				Name: "⋈_orderdate", Key: core.SimpleKey("lo_orderdate", odBits),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_orderdate"}},
				Cols:     []string{"c_nation", "profit"},
				ColExprs: []core.RowExpr{core.Attr(0, "c_nation"), core.Attr(0, "profit")},
			},
		}
	}

	var byDate core.Operator // keyed on lo_orderdate, carrying c_nation and profit
	switch arity {
	case 4: // 4-way star join, then the 2-way join-group with date
		byDate = &core.Join{
			Left: &core.Base{Table: loMain}, Right: selCust,
			Assists: []core.Assist{
				{Input: selSupp, ProbeWith: core.Ref{Input: 0, Attr: "lo_suppkey"}},
				{Input: selPart, ProbeWith: core.Ref{Input: 0, Attr: "lo_partkey"}},
			},
			Out: core.OutputSpec{
				Name: "⋈4_orderdate", Key: core.SimpleKey("lo_orderdate", odBits),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_orderdate"}},
				Cols:     []string{"c_nation", "profit"},
				ColExprs: []core.RowExpr{core.Attr(1, "c_nation"), profit},
			},
		}
	case 3: // 3-way star join, 2-way with part, 2-way join-group with date
		byDate = partJoin(&core.Join{
			Left: &core.Base{Table: loMain}, Right: selCust,
			Assists: []core.Assist{
				{Input: selSupp, ProbeWith: core.Ref{Input: 0, Attr: "lo_suppkey"}},
			},
			Out: core.OutputSpec{
				Name: "⋈3_partkey", Key: core.SimpleKey("lo_partkey", ds.Lineorder.Bits("lo_partkey")),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_partkey"}},
				Cols:     []string{"lo_orderdate", "c_nation", "profit"},
				ColExprs: []core.RowExpr{core.Attr(0, "lo_orderdate"), core.Attr(1, "c_nation"), profit},
			},
		})
	case 2: // a chain of 2-way joins only
		bySupp := &core.Join{
			Left: &core.Base{Table: loMain}, Right: selCust,
			Out: core.OutputSpec{
				Name: "⋈2_suppkey", Key: core.SimpleKey("lo_suppkey", ds.Lineorder.Bits("lo_suppkey")),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_suppkey"}},
				Cols:     []string{"lo_partkey", "lo_orderdate", "c_nation", "profit"},
				ColExprs: []core.RowExpr{core.Attr(0, "lo_partkey"), core.Attr(0, "lo_orderdate"), core.Attr(1, "c_nation"), profit},
			},
		}
		byDate = partJoin(&core.Join{
			Left: bySupp, Right: selSupp,
			Out: core.OutputSpec{
				Name: "⋈2_partkey", Key: core.SimpleKey("lo_partkey", ds.Lineorder.Bits("lo_partkey")),
				KeyRefs:  []core.Ref{{Input: 0, Attr: "lo_partkey"}},
				Cols:     []string{"lo_orderdate", "c_nation", "profit"},
				ColExprs: []core.RowExpr{core.Attr(0, "lo_orderdate"), core.Attr(0, "c_nation"), core.Attr(0, "profit")},
			},
		})
	default:
		panic(fmt.Sprintf("ssb: Figure 9 caps the join arity at 2, 3 or 4, not %d", arity))
	}
	return &core.Plan{Root: &core.Join{
		Left: byDate, Right: dateIdx,
		Out: core.OutputSpec{
			Name: "Γ_year_nation",
			Key: core.GroupKey([]string{"d_year", "c_nation"},
				[]uint{ds.Date.Bits("d_year"), ds.Customer.Bits("c_nation")}),
			KeyRefs:  []core.Ref{{Input: 1, Attr: "d_year"}, {Input: 0, Attr: "c_nation"}},
			Cols:     []string{"profit"},
			ColExprs: []core.RowExpr{core.Attr(0, "profit")},
			Fold:     core.FoldSum(0),
		},
	}}
}

// dimSelection selects the rows of a dimension index whose key matches
// pred into a new index keyed on the dimension key outKey, carrying the
// attribute carry (if any) as payload.
func dimSelection(ti *catalog.TableInfo, idx *core.IndexedTable, pred core.KeyPred, outKey, carry string) *core.Selection {
	out := core.OutputSpec{
		Name:    "σ_" + ti.Name,
		Key:     core.SimpleKey(outKey, ti.Bits(outKey)),
		KeyRefs: []core.Ref{{Input: 0, Attr: outKey}},
	}
	if carry != "" {
		out.Cols = []string{carry}
		out.ColExprs = []core.RowExpr{core.Attr(0, carry)}
	}
	return &core.Selection{Input: &core.Base{Table: idx}, Pred: pred, Out: out}
}

// codes is the predicate "col IN (vals)" over a string column's dictionary
// codes; constants missing from a tiny generated dictionary match nothing.
func codes(ti *catalog.TableInfo, col string, vals ...string) core.KeyPred {
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
