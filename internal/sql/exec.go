package sql

import (
	"context"
	"fmt"
	"sort"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// keyPred converts a restriction on an index key column into the
// selection operator's union-of-ranges predicate. String literals go
// through the order-preserving dictionary; literals missing from the
// dictionary yield an empty predicate (they cannot match loaded data).
func (b *builder) keyPred(ti *catalog.TableInfo, c Cond) (core.KeyPred, error) {
	nothing := core.KeyPred{{Lo: 1, Hi: 0}}
	col := c.Col.Name
	maxKey := uint64(1)<<ti.Bits(col) - 1
	if c.IsStr {
		d := ti.Dict(col)
		if d == nil {
			return nil, fmt.Errorf("sql: string predicate on numeric column %s", col)
		}
		switch c.Kind {
		case CondCmp:
			if code, ok := d.Code(c.Str); ok {
				return core.Point(code), nil
			}
			return nothing, nil
		case CondBetween:
			lo, okL := d.CeilCode(c.LoStr)
			hi, okH := d.FloorCode(c.HiStr)
			if !okL || !okH || lo > hi {
				return nothing, nil
			}
			return core.Between(lo, hi), nil
		case CondIn:
			var p core.KeyPred
			for _, s := range c.StrSet {
				if code, ok := d.Code(s); ok {
					p = append(p, core.KeyRange{Lo: code, Hi: code})
				}
			}
			if len(p) == 0 {
				return nothing, nil
			}
			return p, nil
		}
	}
	switch c.Kind {
	case CondCmp:
		switch c.Op {
		case "=":
			return core.Point(c.Num), nil
		case "<":
			if c.Num == 0 {
				return nothing, nil
			}
			return core.Between(0, min(c.Num-1, maxKey)), nil
		case "<=":
			return core.Between(0, min(c.Num, maxKey)), nil
		case ">":
			if c.Num >= maxKey {
				return nothing, nil
			}
			return core.Between(c.Num+1, maxKey), nil
		case ">=":
			if c.Num > maxKey {
				return nothing, nil
			}
			return core.Between(c.Num, maxKey), nil
		}
	case CondBetween:
		if c.LoNum > maxKey || c.LoNum > c.HiNum {
			return nothing, nil
		}
		return core.Between(c.LoNum, min(c.HiNum, maxKey)), nil
	case CondIn:
		var p core.KeyPred
		for _, v := range c.Set {
			if v <= maxKey {
				p = append(p, core.KeyRange{Lo: v, Hi: v})
			}
		}
		if len(p) == 0 {
			return nothing, nil
		}
		return p, nil
	}
	return nil, fmt.Errorf("sql: unsupported predicate on %s", col)
}

// residual compiles non-primary restrictions into a combination filter.
// shapes are the plan inputs up to and including the restricted one; ord
// is the restricted input's ordinal.
func (b *builder) residual(conds []Cond, ti *catalog.TableInfo, shapes []*core.IndexedTable, ord int) (func([]uint64) bool, error) {
	if len(conds) == 0 {
		return nil, nil
	}
	var tests []func([]uint64) bool
	for _, c := range conds {
		off := core.CtxOffsets(shapes, core.Ref{Input: ord, Attr: c.Col.Name})[0]
		test, err := compileTest(c, ti, off)
		if err != nil {
			return nil, err
		}
		tests = append(tests, test)
	}
	return func(ctx []uint64) bool {
		for _, t := range tests {
			if !t(ctx) {
				return false
			}
		}
		return true
	}, nil
}

func compileTest(c Cond, ti *catalog.TableInfo, off int) (func([]uint64) bool, error) {
	if c.IsStr {
		d := ti.Dict(c.Col.Name)
		if d == nil {
			return nil, fmt.Errorf("sql: string predicate on numeric column %s", c.Col)
		}
		switch c.Kind {
		case CondCmp:
			code, ok := d.Code(c.Str)
			if !ok {
				return func([]uint64) bool { return false }, nil
			}
			return func(ctx []uint64) bool { return ctx[off] == code }, nil
		case CondBetween:
			lo, okL := d.CeilCode(c.LoStr)
			hi, okH := d.FloorCode(c.HiStr)
			if !okL || !okH || lo > hi {
				return func([]uint64) bool { return false }, nil
			}
			return func(ctx []uint64) bool { return ctx[off] >= lo && ctx[off] <= hi }, nil
		case CondIn:
			set := map[uint64]bool{}
			for _, s := range c.StrSet {
				if code, ok := d.Code(s); ok {
					set[code] = true
				}
			}
			return func(ctx []uint64) bool { return set[ctx[off]] }, nil
		}
	}
	switch c.Kind {
	case CondCmp:
		n := c.Num
		switch c.Op {
		case "=":
			return func(ctx []uint64) bool { return ctx[off] == n }, nil
		case "<":
			return func(ctx []uint64) bool { return ctx[off] < n }, nil
		case "<=":
			return func(ctx []uint64) bool { return ctx[off] <= n }, nil
		case ">":
			return func(ctx []uint64) bool { return ctx[off] > n }, nil
		case ">=":
			return func(ctx []uint64) bool { return ctx[off] >= n }, nil
		}
	case CondBetween:
		lo, hi := c.LoNum, c.HiNum
		return func(ctx []uint64) bool { return ctx[off] >= lo && ctx[off] <= hi }, nil
	case CondIn:
		set := map[uint64]bool{}
		for _, v := range c.Set {
			set[v] = true
		}
		return func(ctx []uint64) bool { return set[ctx[off]] }, nil
	}
	return nil, fmt.Errorf("sql: unsupported residual predicate on %s", c.Col)
}

// finish assembles the Statement's extraction metadata: how to map the
// result index (key fields in GROUP BY order, then aggregates) into
// SELECT-item order, how to sort per ORDER BY, and how to decode cells.
func (b *builder) finish(plan *core.Plan) (*Statement, error) {
	s := &Statement{Plan: plan, nGroup: len(b.stmt.GroupBy)}
	groupPos := func(name string) int {
		for i, g := range b.stmt.GroupBy {
			if g.Name == name {
				return i
			}
		}
		return -1
	}
	aggIdx := 0
	for _, it := range b.stmt.Items {
		if it.Agg != nil {
			s.Attrs = append(s.Attrs, b.aggNames[aggIdx])
			s.selOrder = append(s.selOrder, s.nGroup+aggIdx)
			s.cells = append(s.cells, catalog.CellEncoder{})
			aggIdx++
			continue
		}
		gp := groupPos(it.Col.Name)
		if gp < 0 {
			return nil, fmt.Errorf("sql: column %s is neither aggregated nor grouped", it.Col)
		}
		name := it.Alias
		if name == "" {
			name = it.Col.Name
		}
		s.Attrs = append(s.Attrs, name)
		s.selOrder = append(s.selOrder, gp)
		s.cells = append(s.cells, b.tis[b.groupOwner[gp]].Encoder(it.Col.Name))
	}
	for _, o := range b.stmt.OrderBy {
		pos := -1
		for i, a := range s.Attrs {
			if a == o.Col.Name {
				pos = i
			}
		}
		if pos < 0 {
			// Also match the underlying column name of aliased items.
			for i, it := range b.stmt.Items {
				if it.Agg == nil && it.Col.Name == o.Col.Name {
					pos = i
				}
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("sql: ORDER BY column %s not in SELECT list", o.Col)
		}
		if o.Desc {
			s.orderSpec = append(s.orderSpec, -(pos + 1))
		} else {
			s.orderSpec = append(s.orderSpec, pos)
		}
	}
	return s, nil
}

// Run executes the statement on env (see core.Env.Run: its worker pool,
// chunk recycler and spill budget serve the query; ctx cancels it) with
// the per-run execution options — a statement is planned once and run any
// number of times — and, when requested via exec.CollectStats, returns
// per-operator statistics including the worker/morsel counts each operator
// executed with.
func (s *Statement) Run(ctx context.Context, env *core.Env, exec core.Options) (*Rows, *core.PlanStats, error) {
	out, stats, err := env.Run(ctx, s.Plan, exec)
	if err != nil {
		return nil, nil, err
	}
	// The rows are copied out in SELECT order in one walk; the result index
	// is dead after it and goes back to the chunk pool like every
	// intermediate (a no-op without a recycler).
	rows := core.Project(out, s.selOrder)
	out.Release()
	if len(s.orderSpec) > 0 {
		spec := s.orderSpec
		sort.SliceStable(rows, func(a, c int) bool {
			ra, rc := rows[a], rows[c]
			for _, k := range spec {
				col, desc := k, false
				if col < 0 {
					col, desc = -col-1, true
				}
				if ra[col] != rc[col] {
					if desc {
						return ra[col] > rc[col]
					}
					return ra[col] < rc[col]
				}
			}
			return false
		})
	}
	return &Rows{Attrs: s.Attrs, Rows: rows, Cells: s.cells}, stats, nil
}
