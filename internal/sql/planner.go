package sql

import (
	"context"
	"fmt"
	"sort"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// Options is Planner.Plan's ignored parameter: a plan depends on its SQL
// text alone, and how a statement executes is decided per run
// (Statement.Run takes the core.Env and core.Options).
type Options struct {
	// Deprecated: set by benchmark/trace.go; nothing in the planner reads it.
	UseSelectJoin bool
}

// A Planner compiles parsed statements into QPPT plans against a catalog.
type Planner struct {
	cat *catalog.Catalog
}

// NewPlanner returns a planner over the catalog.
func NewPlanner(cat *catalog.Catalog) *Planner { return &Planner{cat: cat} }

// A Statement is a compiled, executable query.
type Statement struct {
	Plan *core.Plan
	// Attrs are the output attribute names in SELECT-item order.
	Attrs []string
	// extraction state
	nGroup    int
	selOrder  []int                 // result column positions in SELECT order
	orderSpec []int                 // orderRows-style sort spec over output rows
	cells     []catalog.CellEncoder // per output column, resolved at plan time
}

// Rows is a materialized, ordered query result.
type Rows struct {
	Attrs []string
	Rows  [][]uint64
	// Cells are the columns' text encoders in SELECT order, resolved when
	// the statement was planned: every reader of a result — Decode here,
	// the wire server's decoded row batches — renders cells through them.
	Cells []catalog.CellEncoder
}

// Decode renders one cell human-readably (dictionary strings decoded).
func (r *Rows) Decode(row, col int) string { return r.Cells[col].String(r.Rows[row][col]) }

// PlanSQL parses and plans a query in one step.
func (p *Planner) PlanSQL(src string) (*Statement, error) {
	return p.PlanSQLCtx(context.Background(), src)
}

// PlanSQLCtx is PlanSQL with cancellation. Planning provisions the base
// indexes the physical plan needs — full table scans on a cold catalog —
// and a cancelled ctx aborts those builds instead of finishing them for
// a client that already hung up.
func (p *Planner) PlanSQLCtx(ctx context.Context, src string) (*Statement, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return p.plan(ctx, stmt)
}

// dimInfo gathers everything the planner knows about one joined dimension.
type dimInfo struct {
	table   string
	ti      *catalog.TableInfo
	joinKey string // dimension-side join column
	fk      string // fact-side join column
	// conds are the dimension's restrictions in WHERE order, then the
	// fact's restrictions on fk, moved onto joinKey.
	conds   []Cond
	carries []string // group-by attributes read from this dimension
	est     float64  // selectivity estimate (lower = more selective)
	ordinal int      // plan input ordinal, assigned late
}

// Plan compiles a parsed statement. The Options are ignored.
func (p *Planner) Plan(stmt *SelectStmt, _ Options) (*Statement, error) {
	return p.plan(context.Background(), stmt)
}

// plan compiles a parsed statement. ctx cancels the base-index builds
// planning triggers.
func (p *Planner) plan(ctx context.Context, stmt *SelectStmt) (*Statement, error) {
	tis := make(map[string]*catalog.TableInfo, len(stmt.Tables))
	for _, t := range stmt.Tables {
		ti := p.cat.Table(t)
		if ti == nil {
			return nil, fmt.Errorf("sql: unknown table %q", t)
		}
		if tis[t] != nil {
			return nil, fmt.Errorf("sql: table %q listed twice in FROM", t)
		}
		tis[t] = ti
	}
	resolve := func(c Column) (string, error) {
		if c.Table != "" {
			ti, ok := tis[c.Table]
			if !ok {
				return "", fmt.Errorf("sql: table %q not in FROM", c.Table)
			}
			if ti.Col(c.Name) < 0 {
				return "", fmt.Errorf("sql: no column %s.%s", c.Table, c.Name)
			}
			return c.Table, nil
		}
		owner := ""
		for t, ti := range tis {
			if ti.Col(c.Name) >= 0 {
				if owner != "" {
					return "", fmt.Errorf("sql: column %q is ambiguous", c.Name)
				}
				owner = t
			}
		}
		if owner == "" {
			return "", fmt.Errorf("sql: unknown column %q", c.Name)
		}
		return owner, nil
	}

	// Classify WHERE conjuncts.
	type joinCond struct {
		a, b   Column
		ta, tb string
	}
	var joins []joinCond
	restr := map[string][]Cond{}
	for _, c := range stmt.Where {
		if c.Kind == CondJoin {
			ta, err := resolve(c.Left)
			if err != nil {
				return nil, err
			}
			tb, err := resolve(c.Right)
			if err != nil {
				return nil, err
			}
			if ta == tb {
				return nil, fmt.Errorf("sql: self-join on %q not supported", ta)
			}
			joins = append(joins, joinCond{a: c.Left, b: c.Right, ta: ta, tb: tb})
			continue
		}
		t, err := resolve(c.Col)
		if err != nil {
			return nil, err
		}
		restr[t] = append(restr[t], c)
	}

	// The fact table is the larger side of every join.
	fact := ""
	if len(joins) == 0 {
		if len(stmt.Tables) == 0 {
			return nil, fmt.Errorf("sql: no table in FROM")
		}
		fact = stmt.Tables[0]
	}
	dims := map[string]*dimInfo{}
	for _, j := range joins {
		fa, fb := tis[j.ta], tis[j.tb]
		ft, dt, fc, dc := j.ta, j.tb, j.a, j.b
		if fa.Rows() < fb.Rows() {
			ft, dt, fc, dc = j.tb, j.ta, j.b, j.a
		}
		if fact == "" {
			fact = ft
		} else if fact != ft {
			return nil, fmt.Errorf("sql: queries must join a single fact table (%s vs %s)", fact, ft)
		}
		if dims[dt] != nil {
			return nil, fmt.Errorf("sql: table %q is joined twice (one join per dimension)", dt)
		}
		dims[dt] = &dimInfo{table: dt, ti: tis[dt], joinKey: dc.Name, fk: fc.Name}
	}
	// Every other FROM table must be a joined dimension: the plan has no
	// operator for the cross product an unjoined table asks for.
	for _, t := range stmt.Tables {
		if t != fact && dims[t] == nil {
			return nil, fmt.Errorf("sql: table %q is not joined (cross products are not supported)", t)
		}
	}
	for t, cs := range restr {
		if t != fact {
			dims[t].conds = cs
		}
	}
	// A fact restriction on a joined foreign key restricts the dimension's
	// join key too (lo_orderdate = d_datekey ∧ lo_orderdate ∈ R ⇒
	// d_datekey ∈ R), so it moves onto every dimension joined on that key:
	// a restricted dimension probes only its qualifying keys. Codes of two
	// dictionaries are not comparable, so a coded column keeps its
	// restriction.
	factTi := tis[fact]
	kept := restr[fact][:0]
	for _, c := range restr[fact] {
		moved := false
		for _, d := range dims { // each gets its own copy: the order does not matter
			if d.fk == c.Col.Name && !c.IsStr && factTi.Dict(d.fk) == nil && d.ti.Dict(d.joinKey) == nil {
				dc := c
				dc.Col = Column{Table: d.table, Name: d.joinKey}
				d.conds = append(d.conds, dc)
				moved = true
			}
		}
		if !moved {
			kept = append(kept, c)
		}
	}
	restr[fact] = kept

	// Group-by attributes: assign carries to their dimensions (or fact).
	var factCarries []string
	groupOwner := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		t, err := resolve(g)
		if err != nil {
			return nil, err
		}
		groupOwner[i] = t
		switch {
		case t == fact:
			factCarries = append(factCarries, g.Name)
		case g.Name != dims[t].joinKey:
			// A dimension's join key is read from the fact's foreign key
			// (outputSpec), so the dimension need not carry it.
			dims[t].carries = append(dims[t].carries, g.Name)
		}
	}

	// Selectivity estimates pick the main (most selective) dimension.
	dimList := make([]*dimInfo, 0, len(dims))
	for _, d := range dims {
		d.est = estimate(d)
		dimList = append(dimList, d)
	}
	sort.Slice(dimList, func(i, j int) bool {
		if dimList[i].est != dimList[j].est {
			return dimList[i].est < dimList[j].est
		}
		return dimList[i].table < dimList[j].table // deterministic plans
	})

	// Aggregates must be fact-only expressions.
	aggNames := make([]string, 0, len(stmt.Items))
	var aggExprs []Expr
	for i, it := range stmt.Items {
		if it.Agg == nil {
			continue
		}
		if err := checkFactExpr(it.Agg, fact, resolve); err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = fmt.Sprintf("sum_%d", i)
		}
		aggNames = append(aggNames, name)
		aggExprs = append(aggExprs, it.Agg)
	}
	// Plain select items must be grouped.
	for _, it := range stmt.Items {
		if it.Agg != nil {
			continue
		}
		found := false
		for _, g := range stmt.GroupBy {
			if g.Name == it.Col.Name {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("sql: column %s is neither aggregated nor grouped", it.Col)
		}
	}

	b := &builder{ctx: ctx, p: p, stmt: stmt, fact: factTi, factName: fact,
		dims: dimList, restr: restr, factCarries: factCarries,
		groupOwner: groupOwner, aggNames: aggNames, aggExprs: aggExprs, tis: tis}
	return b.build()
}

// estimate guesses a dimension restriction's selectivity from dictionary
// domain sizes (lower is more selective). A dimension with no restriction,
// on itself or on the fact's foreign key to it, gets 1.
func estimate(d *dimInfo) float64 {
	if len(d.conds) == 0 {
		return 1
	}
	est := 1.0
	for _, c := range d.conds {
		var f float64 = 0.5
		if c.IsStr {
			if dict := d.ti.Dict(c.Col.Name); dict != nil && dict.Len() > 0 {
				n := float64(dict.Len())
				switch c.Kind {
				case CondCmp:
					f = 1 / n
				case CondIn:
					f = float64(len(c.StrSet)) / n
				case CondBetween:
					f = 8 / n // small contiguous slice
				}
			}
		} else {
			switch c.Kind {
			case CondCmp:
				if c.Op == "=" {
					f = 0.05
				} else {
					f = 0.4
				}
			case CondIn:
				f = 0.05 * float64(len(c.Set))
			case CondBetween:
				f = 0.3
			}
		}
		est *= f
	}
	return est
}

func checkFactExpr(e Expr, fact string, resolve func(Column) (string, error)) error {
	switch x := e.(type) {
	case ColExpr:
		t, err := resolve(x.Col)
		if err != nil {
			return err
		}
		if t != fact {
			return fmt.Errorf("sql: aggregate over non-fact column %s", x.Col)
		}
		return nil
	case BinExpr:
		if err := checkFactExpr(x.L, fact, resolve); err != nil {
			return err
		}
		return checkFactExpr(x.R, fact, resolve)
	case NumExpr:
		return nil
	case StrExpr:
		return fmt.Errorf("sql: string literal in aggregate")
	}
	return fmt.Errorf("sql: unsupported aggregate expression")
}
