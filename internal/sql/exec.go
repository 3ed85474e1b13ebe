package sql

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// keyPred converts a restriction on a column into a union of key ranges:
// a scan's predicate on its index key, or an operator's predicate on
// another attribute (core.AttrPred). String
// literals go through the order-preserving dictionary; literals missing
// from the dictionary, and numbers past the column's key width, match
// nothing (they cannot match loaded data).
func (b *builder) keyPred(ti *catalog.TableInfo, c Cond) (core.KeyPred, error) {
	col := c.Col.Name
	d, maxKey := ti.Dict(col), uint64(1)<<ti.Bits(col)-1
	if c.IsStr && d == nil {
		return nil, fmt.Errorf("sql: string predicate on numeric column %s", col)
	}
	if !c.IsStr && d != nil {
		return nil, fmt.Errorf("sql: numeric predicate on string column %s", col)
	}
	var p core.KeyPred
	add := func(lo, hi uint64) {
		if hi = min(hi, maxKey); lo <= hi {
			p = append(p, core.KeyRange{Lo: lo, Hi: hi})
		}
	}
	switch {
	case c.Kind == CondBetween && c.IsStr:
		lo, okL := d.CeilCode(c.LoStr)
		hi, okH := d.FloorCode(c.HiStr)
		if okL && okH {
			add(lo, hi)
		}
	case c.Kind == CondBetween:
		add(c.LoNum, c.HiNum)
	case c.Kind == CondIn:
		for _, v := range c.Set {
			add(v, v)
		}
		for _, s := range c.StrSet {
			if v, ok := d.Code(s); ok {
				add(v, v)
			}
		}
	case c.Kind != CondCmp:
		return nil, fmt.Errorf("sql: unsupported predicate on %s", col)
	case c.IsStr: // the parser compares strings by = only
		if v, ok := d.Code(c.Str); ok {
			add(v, v)
		}
	case c.Op == "=":
		add(c.Num, c.Num)
	case c.Op == "<":
		if c.Num > 0 {
			add(0, c.Num-1)
		}
	case c.Op == "<=":
		add(0, c.Num)
	case c.Op == ">":
		if c.Num < maxKey {
			add(c.Num+1, maxKey)
		}
	case c.Op == ">=":
		add(c.Num, maxKey)
	default:
		return nil, fmt.Errorf("sql: unsupported predicate on %s", col)
	}
	if len(p) == 0 {
		return core.KeyPred{{Lo: 1, Hi: 0}}, nil // nothing matches
	}
	// A scan reads every range, so a value listed twice must not make two.
	slices.SortFunc(p, func(a, b core.KeyRange) int { return cmp.Compare(a.Lo, b.Lo) })
	merged := p[:1]
	for _, r := range p[1:] {
		last := &merged[len(merged)-1]
		if r.Lo <= last.Hi || r.Lo-1 == last.Hi {
			last.Hi = max(last.Hi, r.Hi)
			continue
		}
		merged = append(merged, r)
	}
	return merged, nil
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
	// intermediate.
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
