package ssb

import (
	"fmt"
	"slices"

	"qppt/internal/sql"
	"qppt/internal/vecstore"
)

// RunVector runs SSB query qid's SQL text (SQLTexts) on the
// vector-at-a-time baseline engine: a volcano tree of vectorized operators
// — the fact scan under its selections, streaming through one hash join
// per dimension, most selective first (built from a selection over the
// dimension's scan; a semi join when the dimension carries no GROUP BY
// column, which SSB's unique dimension keys make exact), then the
// aggregate expressions and the packed group key as computed columns under
// one hash aggregation.
func (ds *Dataset) RunVector(qid string) (*QueryResult, error) {
	text, ok := SQLTexts[qid]
	if !ok {
		return nil, fmt.Errorf("ssb: unknown query %q", qid)
	}
	st, err := ds.compile(text)
	if err != nil {
		return nil, err
	}
	op := scan(ds.Raw[st.fact], st.factCols, st.factPreds)
	for _, d := range st.dims {
		op = &vecstore.HashJoin{
			Build: scan(ds.Raw[d.table], append([]string{d.key}, d.carries...), d.preds), BuildKey: d.key,
			BuildPayload: d.carries, Semi: len(d.carries) == 0,
			Probe: op, ProbeKey: d.fk,
		}
	}
	sums := make([]string, len(st.aggs))
	for i, e := range st.aggs {
		sums[i] = fmt.Sprintf("sum_%d", i)
		op = &vecstore.Map{Child: op, Name: sums[i], Fn: vecExpr(e, op.Schema())}
	}
	at := make([]int, len(st.groups))
	for i, g := range st.groups {
		at[i] = slices.Index(op.Schema(), g.col)
	}
	op = &vecstore.Map{Child: op, Name: "group", Fn: func(b *vecstore.Batch, r int) uint64 {
		var k uint64
		for i, g := range st.groups {
			k = pack(k, g, b.Cols[at[i]][r])
		}
		return k
	}}
	var rows [][]uint64
	for _, r := range vecstore.Collect(&vecstore.HashAgg{Child: op, GroupCol: "group", SumCols: sums}) {
		rows = append(rows, st.row(r[0], r[1:]))
	}
	return st.result(rows), nil
}

// scan reads cols and the predicates' columns of a table, one Select per
// predicate on top.
func scan(table map[string][]uint64, cols []string, preds []pred) vecstore.Op {
	for _, p := range preds {
		cols = append(cols, p.col)
	}
	var op vecstore.Op = vecstore.NewScan(table, uniq(cols)...)
	for _, p := range preds {
		i, lo, hi := slices.Index(op.Schema(), p.col), p.lo, p.hi
		match := func(b *vecstore.Batch, r int) bool { return b.Cols[i][r] >= lo && b.Cols[i][r] <= hi }
		if p.in != nil {
			match = func(b *vecstore.Batch, r int) bool { return p.in[b.Cols[i][r]] }
		}
		op = &vecstore.Select{Child: op, Pred: match}
	}
	return op
}

// vecExpr compiles an aggregate expression over a batch of schema.
func vecExpr(e sql.Expr, schema []string) func(*vecstore.Batch, int) uint64 {
	switch x := e.(type) {
	case sql.ColExpr:
		i := slices.Index(schema, x.Col.Name)
		return func(b *vecstore.Batch, r int) uint64 { return b.Cols[i][r] }
	case sql.BinExpr:
		l, rt := vecExpr(x.L, schema), vecExpr(x.R, schema)
		return func(b *vecstore.Batch, r int) uint64 { return apply(x.Op, l(b, r), rt(b, r)) }
	}
	v := e.(sql.NumExpr).Val
	return func(*vecstore.Batch, int) uint64 { return v }
}

// uniq drops repeated names, keeping first occurrences.
func uniq(names []string) []string {
	var out []string
	for _, n := range names {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}
