package sql

import (
	"fmt"
	"strconv"
)

// Parse parses one SSB-dialect SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text string) (token, error) {
	if !p.at(k, text) {
		return token{}, p.errf("expected %q, found %q", text, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// num parses a number literal. The lexer accepts any digit run, so a
// literal above 2^64-1 is a parse error here.
func (p *parser) num(t token) (uint64, error) {
	v, err := strconv.ParseUint(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: at offset %d: bad number %q", t.pos, t.text)
	}
	return v, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokIdent, "select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokIdent, "from"); err != nil {
		return nil, err
	}
	for {
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		stmt.Tables = append(stmt.Tables, t.text)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokIdent, "where") {
		for {
			cond, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			stmt.Where = append(stmt.Where, cond)
			if !p.accept(tokIdent, "and") {
				break
			}
		}
	}
	if p.accept(tokIdent, "group") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumn()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "order") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumn()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.accept(tokIdent, "desc") {
				item.Desc = true
			} else {
				p.accept(tokIdent, "asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	var item SelectItem
	if p.at(tokIdent, "sum") {
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return item, err
		}
		expr, err := p.parseExpr()
		if err != nil {
			return item, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return item, err
		}
		item.Agg = expr
	} else {
		c, err := p.parseColumn()
		if err != nil {
			return item, err
		}
		item.Col = c
	}
	if p.accept(tokIdent, "as") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return item, err
		}
		item.Alias = a.text
	}
	return item, nil
}

// parseExpr parses additive expressions with standard precedence
// (* binds tighter than + and -).
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "+") || p.at(tokSymbol, "-") {
		op := p.next().text[0]
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "*") {
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: '*', L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.cur(); t.kind {
	case tokNumber:
		p.next()
		v, err := p.num(t)
		if err != nil {
			return nil, err
		}
		return NumExpr{Val: v}, nil
	case tokString:
		p.next()
		return StrExpr{Val: t.text}, nil
	case tokIdent:
		c, err := p.parseColumn()
		if err != nil {
			return nil, err
		}
		return ColExpr{Col: c}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("expected expression, found %q", p.cur().text)
}

func (p *parser) parseColumn() (Column, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return Column{}, err
	}
	if p.accept(tokSymbol, ".") {
		n, err := p.expect(tokIdent, "")
		if err != nil {
			return Column{}, err
		}
		return Column{Table: t.text, Name: n.text}, nil
	}
	return Column{Name: t.text}, nil
}

// parseCond parses one conjunct: an equijoin, a comparison, BETWEEN, IN,
// or a parenthesized OR chain over one column (normalized to IN).
func (p *parser) parseCond() (Cond, error) {
	if p.accept(tokSymbol, "(") {
		cond, err := p.parseOrChain()
		if err != nil {
			return Cond{}, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return Cond{}, err
		}
		return cond, nil
	}
	left, err := p.parseColumn()
	if err != nil {
		return Cond{}, err
	}
	switch {
	case p.accept(tokIdent, "between"):
		lo := p.cur()
		if !p.accept(tokNumber, "") && !p.accept(tokString, "") {
			return Cond{}, p.errf("expected literal after BETWEEN")
		}
		if _, err := p.expect(tokIdent, "and"); err != nil {
			return Cond{}, err
		}
		hi := p.cur()
		if !p.accept(tokNumber, "") && !p.accept(tokString, "") {
			return Cond{}, p.errf("expected literal after AND")
		}
		if lo.kind != hi.kind {
			return Cond{}, p.errf("BETWEEN bounds of different types")
		}
		c := Cond{Kind: CondBetween, Col: left}
		if lo.kind == tokString {
			c.IsStr, c.LoStr, c.HiStr = true, lo.text, hi.text
		} else if c.LoNum, err = p.num(lo); err != nil {
			return Cond{}, err
		} else if c.HiNum, err = p.num(hi); err != nil {
			return Cond{}, err
		}
		return c, nil

	case p.accept(tokIdent, "in"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return Cond{}, err
		}
		c := Cond{Kind: CondIn, Col: left}
		for {
			t := p.cur()
			switch {
			case p.accept(tokString, ""):
				c.IsStr = true
				c.StrSet = append(c.StrSet, t.text)
			case p.accept(tokNumber, ""):
				v, err := p.num(t)
				if err != nil {
					return Cond{}, err
				}
				c.Set = append(c.Set, v)
			default:
				return Cond{}, p.errf("expected literal in IN list")
			}
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return Cond{}, err
		}
		return c, nil
	}

	opTok := p.cur()
	if opTok.kind != tokOp {
		return Cond{}, p.errf("expected operator, found %q", opTok.text)
	}
	p.next()
	rhs := p.cur()
	switch {
	case p.accept(tokString, ""):
		if opTok.text != "=" {
			return Cond{}, p.errf("only = is supported on strings (or BETWEEN/IN)")
		}
		return Cond{Kind: CondCmp, Col: left, Op: "=", Str: rhs.text, IsStr: true}, nil
	case p.accept(tokNumber, ""):
		v, err := p.num(rhs)
		if err != nil {
			return Cond{}, err
		}
		return Cond{Kind: CondCmp, Col: left, Op: opTok.text, Num: v}, nil
	case rhs.kind == tokIdent:
		right, err := p.parseColumn()
		if err != nil {
			return Cond{}, err
		}
		if opTok.text != "=" {
			return Cond{}, p.errf("joins must be equijoins")
		}
		return Cond{Kind: CondJoin, Left: left, Right: right}, nil
	}
	return Cond{}, p.errf("expected literal or column after operator")
}

// parseOrChain parses `a = x or a = y [or ...]` and normalizes it to IN.
func (p *parser) parseOrChain() (Cond, error) {
	c := Cond{Kind: CondIn}
	for {
		col, err := p.parseColumn()
		if err != nil {
			return Cond{}, err
		}
		if c.Col.Name == "" {
			c.Col = col
		} else if c.Col != col {
			return Cond{}, p.errf("OR chains must restrict a single column (%s vs %s)", c.Col, col)
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return Cond{}, err
		}
		t := p.cur()
		switch {
		case p.accept(tokString, ""):
			c.IsStr = true
			c.StrSet = append(c.StrSet, t.text)
		case p.accept(tokNumber, ""):
			v, err := p.num(t)
			if err != nil {
				return Cond{}, err
			}
			c.Set = append(c.Set, v)
		default:
			return Cond{}, p.errf("expected literal in OR chain")
		}
		if !p.accept(tokIdent, "or") {
			return c, nil
		}
	}
}
