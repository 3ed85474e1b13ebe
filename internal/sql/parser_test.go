package sql

import (
	"reflect"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("select sum(a*b) from `date` where x = 'MFGR#12' and y <= 25;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"select", "sum", "(", "a", "*", "b", ")", "from", "date",
		"where", "x", "=", "MFGR#12", "and", "y", "<=", "25", ";", ""}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("texts = %q", texts)
	}
	if kinds[8] != tokIdent || kinds[12] != tokString || kinds[16] != tokNumber {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("select 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("select `unterminated"); err == nil {
		t.Error("unterminated quoted ident accepted")
	}
	if _, err := lex("select @"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestLexEscapedQuote(t *testing.T) {
	toks, err := lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "it's" {
		t.Fatalf("got %q", toks[0].text)
	}
}

func TestParseSSBQuery23(t *testing.T) {
	stmt, err := Parse(`
		select sum(lineorder.lo_revenue), d_year, p_brand1
		from lineorder, date, part, supplier
		where lo_orderdate = d_datekey
		and lo_partkey = p_partkey
		and lo_suppkey = s_suppkey
		and p_brand1 = 'MFGR#2221'
		and s_region = 'EUROPE'
		group by d_year, p_brand1
		order by d_year, p_brand1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 3 || stmt.Items[0].Agg == nil {
		t.Fatalf("items = %+v", stmt.Items)
	}
	if len(stmt.Tables) != 4 || stmt.Tables[1] != "date" {
		t.Fatalf("tables = %v", stmt.Tables)
	}
	joins, cmps := 0, 0
	for _, c := range stmt.Where {
		switch c.Kind {
		case CondJoin:
			joins++
		case CondCmp:
			cmps++
			if !c.IsStr {
				t.Errorf("expected string comparison, got %+v", c)
			}
		}
	}
	if joins != 3 || cmps != 2 {
		t.Fatalf("joins/cmps = %d/%d", joins, cmps)
	}
	if len(stmt.GroupBy) != 2 || stmt.GroupBy[1].Name != "p_brand1" {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
	if len(stmt.OrderBy) != 2 || stmt.OrderBy[0].Desc {
		t.Fatalf("order by = %v", stmt.OrderBy)
	}
	if stmt.String() == "" {
		t.Error("empty String()")
	}
}

func TestParseBetweenAndArith(t *testing.T) {
	stmt, err := Parse(`select sum(lo_extendedprice*lo_discount) as revenue
		from lineorder, date
		where lo_orderdate = d_datekey and d_year = 1993
		and lo_discount between 1 and 3 and lo_quantity < 25`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Alias != "revenue" {
		t.Fatalf("alias = %q", stmt.Items[0].Alias)
	}
	be, ok := stmt.Items[0].Agg.(BinExpr)
	if !ok || be.Op != '*' {
		t.Fatalf("agg = %#v", stmt.Items[0].Agg)
	}
	var between, lt *Cond
	for i := range stmt.Where {
		switch stmt.Where[i].Kind {
		case CondBetween:
			between = &stmt.Where[i]
		case CondCmp:
			if stmt.Where[i].Op == "<" {
				lt = &stmt.Where[i]
			}
		}
	}
	if between == nil || between.LoNum != 1 || between.HiNum != 3 {
		t.Fatalf("between = %+v", between)
	}
	if lt == nil || lt.Num != 25 {
		t.Fatalf("lt = %+v", lt)
	}
}

func TestParseOrChainAndIn(t *testing.T) {
	stmt, err := Parse(`select sum(lo_revenue) from lineorder, part, date
		where lo_partkey = p_partkey and lo_orderdate = d_datekey
		and (p_mfgr = 'MFGR#1' or p_mfgr = 'MFGR#2')
		and d_year in (1997, 1998)`)
	if err != nil {
		t.Fatal(err)
	}
	var strIn, numIn *Cond
	for i := range stmt.Where {
		if stmt.Where[i].Kind == CondIn {
			if stmt.Where[i].IsStr {
				strIn = &stmt.Where[i]
			} else {
				numIn = &stmt.Where[i]
			}
		}
	}
	if strIn == nil || !reflect.DeepEqual(strIn.StrSet, []string{"MFGR#1", "MFGR#2"}) {
		t.Fatalf("or chain = %+v", strIn)
	}
	if numIn == nil || !reflect.DeepEqual(numIn.Set, []uint64{1997, 1998}) {
		t.Fatalf("in list = %+v", numIn)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select a",                               // no FROM
		"select a from",                          // no table
		"select a from t where",                  // no condition
		"select a from t where a <> b",           // unsupported operator shape
		"select a from t where (a = 1 or b = 2)", // OR over two columns
		"select a from t where a between 1 and 'x'", // mixed types
		"select a from t where a in ('x', 1)",       // mixed types
		"select a from t where a in (1, 'x')",       // mixed types
		"select a from t where (a = 'x' or a = 1)",  // mixed types
		"select a from t extra",                     // trailing tokens
		"select a from t where a < 'x'",             // non-= string comparison
		// Number literals above 2^64-1, in every condition form.
		"select a from t where a = 99999999999999999999",
		"select a from t where a between 1 and 18446744073709551616",
		"select a from t where a in (1, 99999999999999999999)",
		"select a from t where (a = 1 or a = 99999999999999999999)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseQualifiedAndDesc(t *testing.T) {
	stmt, err := Parse(`select c_nation, sum(lo_revenue) as revenue from lineorder, customer
		where lo_custkey = c_custkey group by c_nation order by revenue desc, c_nation asc`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatalf("order = %+v", stmt.OrderBy)
	}
}
