package ssb

import (
	"fmt"

	"qppt/internal/colstore"
	"qppt/internal/sql"
)

// RunColumn runs SSB query qid's SQL text (SQLTexts) on the
// column-at-a-time baseline engine.
func (ds *Dataset) RunColumn(qid string) (*QueryResult, error) {
	text, ok := SQLTexts[qid]
	if !ok {
		return nil, fmt.Errorf("ssb: unknown query %q", qid)
	}
	return ds.RunColumnSQL(text)
}

// RunColumnSQL runs a SQL text on the column-at-a-time baseline engine,
// mirroring the BAT-operator chains a MonetDB plan would run: every step
// fully materializes oid lists or reconstructed columns before the next
// step starts. The fact predicates select first; then each dimension, most
// selective first, selects, builds a hash table and is probed with the
// surviving fact rows' foreign keys, and every column that survives the
// join is re-fetched through its positions — the tuple-reconstruction cost
// the paper's Figure 7 attributes to the column model. A text outside the
// planner's star subset is an error.
func (ds *Dataset) RunColumnSQL(text string) (*QueryResult, error) {
	st, err := ds.compile(text)
	if err != nil {
		return nil, err
	}
	fact := ds.Raw[st.fact]
	var oids []uint32 // surviving fact rows; nil = all of them
	for _, p := range st.factPreds {
		oids = selectOids(fact[p.col], oids, p)
	}
	fetch := func(col []uint64) []uint64 {
		if oids == nil {
			return col
		}
		return colstore.Fetch(col, oids)
	}
	fields := make([][]uint64, len(st.groups)) // GROUP BY columns aligned with oids
	for _, d := range st.dims {
		dt := ds.Raw[d.table]
		var doids []uint32
		for _, p := range d.preds {
			doids = selectOids(dt[p.col], doids, p)
		}
		pos, match := colstore.ProbeJoin(fetch(fact[d.fk]), colstore.BuildJoin(dt[d.key], doids))
		for i, g := range st.groups {
			if fields[i] != nil {
				fields[i] = colstore.Fetch(fields[i], pos)
			} else if g.table == d.table {
				fields[i] = colstore.Fetch(dt[g.col], match)
			}
		}
		if oids != nil {
			pos = colstore.Fetch(oids, pos)
		}
		oids = pos
	}
	n := ds.Cat.Table(st.fact).Rows()
	if oids != nil {
		n = len(oids)
	}
	keys := make([]uint64, n)
	for i, g := range st.groups {
		if g.table == st.fact {
			fields[i] = fetch(fact[g.col])
		}
		for r, v := range fields[i] {
			keys[r] = pack(keys[r], g, v)
		}
	}
	var eval func(e sql.Expr) []uint64
	eval = func(e sql.Expr) []uint64 {
		if x, ok := e.(sql.ColExpr); ok {
			return fetch(fact[x.Col.Name])
		}
		out := make([]uint64, n)
		switch x := e.(type) {
		case sql.NumExpr:
			for i := range out {
				out[i] = x.Val
			}
		case sql.BinExpr:
			l, r := eval(x.L), eval(x.R)
			for i := range out {
				out[i] = apply(x.Op, l[i], r[i])
			}
		}
		return out
	}
	measures := make([][]uint64, len(st.aggs))
	for i, e := range st.aggs {
		measures[i] = eval(e)
	}
	var rows [][]uint64
	for k, sums := range colstore.GroupSum(keys, measures) {
		rows = append(rows, st.row(k, sums))
	}
	return st.result(rows), nil
}

// selectOids applies one predicate to a column: a Select over the whole
// column when cands is nil, a Refine of the candidates otherwise.
func selectOids(col []uint64, cands []uint32, p pred) []uint32 {
	switch {
	case cands == nil && p.in != nil:
		return colstore.SelectIn(col, p.in)
	case cands == nil:
		return colstore.SelectRange(col, p.lo, p.hi)
	case p.in != nil:
		return colstore.RefineIn(col, cands, p.in)
	}
	return colstore.RefineRange(col, cands, p.lo, p.hi)
}
