package ssb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"qppt/internal/catalog"
	"qppt/internal/sql"
)

// QueryIDs lists the thirteen SSB queries in benchmark order.
var QueryIDs = []string{"1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3"}

// A QueryResult is a baseline engine's answer to a SQL text: the text's
// output attributes in SELECT-item order, and its rows sorted by ORDER BY
// with the remaining columns as tie-break, so that results compare exactly
// across engines.
type QueryResult struct {
	Attrs []string
	Rows  [][]uint64
}

// A star is a SQL text compiled for the baseline engines. It accepts the
// planner's subset — one fact table, every other FROM table a dimension
// equijoined to it, sums of fact expressions, GROUP BY and ORDER BY — and
// resolves it with sql.Parse and the catalog's dictionaries alone, never
// with the planner, so the baselines stay an independent check of it.
type star struct {
	fact      string
	factPreds []pred
	factCols  []string   // fact columns the joins, GROUP BY and sums read
	dims      []*dim     // probe order: ascending exact selected share, ties by table name
	aggs      []sql.Expr // the sum(...) expressions in SELECT order
	groups    []field    // GROUP BY columns, packed into one key in this order
	attrs     []string   // output names in SELECT-item order
	sel       []int      // per output column: a groups index, or len(groups)+aggs index
	order     []int      // ORDER BY output columns; -(c+1) for c descending
}

// A field is one GROUP BY column and its catalog width.
type field struct {
	table, col string
	bits       uint
}

// A dim is one joined dimension.
type dim struct {
	table, key, fk  string // key: its join column; fk: the fact's
	preds           []pred
	carries         []string // distinct GROUP BY columns read from it
	selected, total int      // rows its predicates keep, of all
}

// A pred is one WHERE restriction on a column's encoded values: the set in
// when it is non-nil, else the inclusive range [lo, hi] (empty if lo > hi).
type pred struct {
	col    string
	lo, hi uint64
	in     map[uint64]bool
}

func (p pred) match(v uint64) bool {
	if p.in != nil {
		return p.in[v]
	}
	return v >= p.lo && v <= p.hi
}

// compile parses text and resolves it against the dataset's catalog; a
// text outside the subset is an error.
func (ds *Dataset) compile(text string) (*star, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	tis := map[string]*catalog.TableInfo{}
	for _, t := range stmt.Tables {
		if tis[t] != nil || ds.Cat.Table(t) == nil {
			return nil, fmt.Errorf("ssb: table %q is unknown or listed twice", t)
		}
		tis[t] = ds.Cat.Table(t)
	}
	owner := func(c sql.Column) (string, error) {
		found := ""
		for t, ti := range tis {
			if ti.Col(c.Name) >= 0 && (c.Table == "" || c.Table == t) {
				if found != "" {
					return "", fmt.Errorf("ssb: column %s is ambiguous", c)
				}
				found = t
			}
		}
		if found == "" {
			return "", fmt.Errorf("ssb: unknown column %s", c)
		}
		return found, nil
	}

	// The fact table is the larger side of every join.
	st, dims := &star{fact: stmt.Tables[0]}, map[string]*dim{}
	for _, c := range stmt.Where {
		if c.Kind != sql.CondJoin {
			continue
		}
		ft, err1 := owner(c.Left)
		dt, err2 := owner(c.Right)
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		fc, dc := c.Left, c.Right
		if tis[ft].Rows() < tis[dt].Rows() {
			ft, dt, fc, dc = dt, ft, dc, fc
		}
		if ft == dt || len(dims) > 0 && ft != st.fact || dims[dt] != nil {
			return nil, fmt.Errorf("ssb: join %s = %s does not add a dimension to one fact table", c.Left, c.Right)
		}
		st.fact, st.factCols = ft, append(st.factCols, fc.Name)
		dims[dt] = &dim{table: dt, key: dc.Name, fk: fc.Name, total: tis[dt].Rows()}
	}
	for _, t := range stmt.Tables {
		if t != st.fact && dims[t] == nil {
			return nil, fmt.Errorf("ssb: table %q is not joined", t)
		}
	}
	for _, c := range stmt.Where {
		if c.Kind == sql.CondJoin {
			continue
		}
		t, err := owner(c.Col)
		if err != nil {
			return nil, err
		}
		p, err := compilePred(tis[t], c)
		if err != nil {
			return nil, err
		}
		if t == st.fact {
			st.factPreds = append(st.factPreds, p)
		} else {
			dims[t].preds = append(dims[t].preds, p)
		}
	}

	var width uint
	for _, g := range stmt.GroupBy {
		t, err := owner(g)
		if err != nil {
			return nil, err
		}
		st.groups = append(st.groups, field{t, g.Name, tis[t].Bits(g.Name)})
		width += tis[t].Bits(g.Name)
		if d := dims[t]; d == nil {
			st.factCols = append(st.factCols, g.Name)
		} else if !slices.Contains(d.carries, g.Name) {
			d.carries = append(d.carries, g.Name)
		}
	}
	if width > 64 {
		return nil, fmt.Errorf("ssb: GROUP BY key of %d bits is wider than 64", width)
	}
	for i, it := range stmt.Items {
		name, gi := it.Alias, slices.IndexFunc(stmt.GroupBy, func(g sql.Column) bool { return g.Name == it.Col.Name })
		switch {
		case it.Agg != nil:
			if err := st.factExpr(it.Agg, owner); err != nil {
				return nil, err
			}
			name = cmp.Or(name, fmt.Sprintf("sum_%d", i))
			gi = len(st.groups) + len(st.aggs)
			st.aggs = append(st.aggs, it.Agg)
		case gi < 0:
			return nil, fmt.Errorf("ssb: column %s is neither aggregated nor grouped", it.Col)
		}
		st.attrs = append(st.attrs, cmp.Or(name, it.Col.Name))
		st.sel = append(st.sel, gi)
	}
	// ORDER BY names an output attribute, or else the column of a plain
	// SELECT item; the last match wins either way.
	for _, o := range stmt.OrderBy {
		byAttr, byCol := -1, -1
		for i, it := range stmt.Items {
			if st.attrs[i] == o.Col.Name {
				byAttr = i
			}
			if it.Agg == nil && it.Col.Name == o.Col.Name {
				byCol = i
			}
		}
		pos := byAttr
		if pos < 0 {
			pos = byCol
		}
		if pos < 0 {
			return nil, fmt.Errorf("ssb: ORDER BY column %s not in SELECT list", o.Col)
		}
		if o.Desc {
			pos = -pos - 1
		}
		st.order = append(st.order, pos)
	}

	// Probe order: the dimension that keeps the smallest share of its rows
	// first.
	for _, d := range dims {
		d.selected = countMatches(ds.Raw[d.table], d.preds, d.total)
		st.dims = append(st.dims, d)
	}
	slices.SortFunc(st.dims, func(a, b *dim) int {
		return cmp.Or(cmp.Compare(a.selected*b.total, b.selected*a.total), strings.Compare(a.table, b.table))
	})
	return st, nil
}

// compilePred encodes one restriction on a column of ti: string literals
// through the column's dictionary (a literal missing from it matches
// nothing), numbers as they are.
func compilePred(ti *catalog.TableInfo, c sql.Cond) (pred, error) {
	p := pred{col: c.Col.Name, lo: 1} // hi 0: matches nothing
	d := ti.Dict(p.col)
	switch {
	case c.IsStr != (d != nil):
		return p, fmt.Errorf("ssb: string and number mismatch in a predicate on %s", c.Col)
	case c.Kind == sql.CondBetween && !c.IsStr:
		p.lo, p.hi = c.LoNum, c.HiNum
	case c.Kind == sql.CondBetween:
		lo, okL := d.CeilCode(c.LoStr)
		hi, okH := d.FloorCode(c.HiStr)
		if okL && okH {
			p.lo, p.hi = lo, hi
		}
	case c.Kind == sql.CondIn:
		p.in = map[uint64]bool{}
		for _, v := range c.Set {
			p.in[v] = true
		}
		for _, s := range c.StrSet {
			if code, ok := d.Code(s); ok {
				p.in[code] = true
			}
		}
	case c.IsStr: // only = compares strings
		if code, ok := d.Code(c.Str); ok {
			p.lo, p.hi = code, code
		}
	case c.Op == "=":
		p.lo, p.hi = c.Num, c.Num
	case c.Op == "<" && c.Num > 0:
		p.lo, p.hi = 0, c.Num-1
	case c.Op == "<=":
		p.lo, p.hi = 0, c.Num
	case c.Op == ">" && c.Num < math.MaxUint64:
		p.lo, p.hi = c.Num+1, math.MaxUint64
	case c.Op == ">=":
		p.lo, p.hi = c.Num, math.MaxUint64
	case c.Op != "<" && c.Op != ">":
		return p, fmt.Errorf("ssb: unsupported comparison %q", c.Op)
	}
	return p, nil
}

// factExpr checks that e is arithmetic over numbers and fact columns,
// and notes the columns in factCols.
func (st *star) factExpr(e sql.Expr, owner func(sql.Column) (string, error)) error {
	switch x := e.(type) {
	case sql.ColExpr:
		t, err := owner(x.Col)
		if err == nil && t != st.fact {
			err = fmt.Errorf("ssb: aggregate over non-fact column %s", x.Col)
		}
		st.factCols = append(st.factCols, x.Col.Name)
		return err
	case sql.NumExpr:
		return nil
	case sql.BinExpr:
		return errors.Join(st.factExpr(x.L, owner), st.factExpr(x.R, owner))
	}
	return fmt.Errorf("ssb: string literal in an aggregate")
}

// apply is one operator of an aggregate expression; arithmetic wraps, as
// in the QPPT engine.
func apply(op byte, a, b uint64) uint64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	}
	return a * b
}

// countMatches counts the rows of a table of n rows that satisfy every
// predicate.
func countMatches(table map[string][]uint64, preds []pred, n int) int {
	count := 0
	for r := range n {
		if !slices.ContainsFunc(preds, func(p pred) bool { return !p.match(table[p.col][r]) }) {
			count++
		}
	}
	return count
}

// pack appends one group field to a packed group key.
func pack(k uint64, f field, v uint64) uint64 { return k<<f.bits | v }

// row assembles one output row from a group's packed key and its sums.
func (st *star) row(k uint64, sums []uint64) []uint64 {
	fields := make([]uint64, len(st.groups))
	for i := len(fields) - 1; i >= 0; i-- {
		fields[i] = k & (uint64(1)<<st.groups[i].bits - 1)
		k >>= st.groups[i].bits
	}
	fields = append(fields, sums...)
	out := make([]uint64, len(st.sel))
	for i, s := range st.sel {
		out[i] = fields[s]
	}
	return out
}

// result orders rows by the text's ORDER BY, ties broken by the remaining
// columns ascending so that the order is total.
func (st *star) result(rows [][]uint64) *QueryResult {
	keys := slices.Clip(st.order)
	for c := range st.attrs {
		if !slices.Contains(keys, c) && !slices.Contains(keys, -c-1) {
			keys = append(keys, c)
		}
	}
	slices.SortFunc(rows, func(a, b []uint64) int {
		for _, k := range keys {
			x, y := a, b
			if k < 0 {
				k, x, y = -k-1, b, a
			}
			if x[k] != y[k] {
				return cmp.Compare(x[k], y[k])
			}
		}
		return 0
	})
	return &QueryResult{Attrs: st.attrs, Rows: rows}
}
