package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
)

// The test fixture is a miniature star schema:
//
//	fact(custkey, prodkey, qty)       — nFact rows
//	customers(custkey) → region       — nCust rows
//	products(prodkey)  → brand        — nProd rows
//
// with base indexes shaped the way QPPT base indexes are: partially
// clustered (the payload carries the attributes later operators need).
type fixture struct {
	factByProd  *IndexedTable // key prodkey, payload [custkey, qty]
	custByKey   *IndexedTable // key custkey, payload [region]
	prodByBrand *IndexedTable // key brand, payload [prodkey]

	// raw rows for brute-force oracles
	fact [][3]uint64 // custkey, prodkey, qty
	cust map[uint64]uint64
	prod map[uint64]uint64 // prodkey → brand
}

const (
	nFact   = 30000
	nCust   = 500
	nProd   = 200
	nBrand  = 25
	nRegion = 5
)

func buildFixture(seed int64) *fixture {
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{cust: map[uint64]uint64{}, prod: map[uint64]uint64{}}

	factIdx := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 2})
	custIdx := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
	prodIdx := NewIndex(IndexConfig{KeyBits: 8, PayloadWidth: 1})

	for c := uint64(0); c < nCust; c++ {
		region := uint64(rng.Intn(nRegion))
		f.cust[c] = region
		custIdx.Insert(c, []uint64{region})
	}
	for p := uint64(0); p < nProd; p++ {
		brand := uint64(rng.Intn(nBrand))
		f.prod[p] = brand
		prodIdx.Insert(brand, []uint64{p})
	}
	for i := 0; i < nFact; i++ {
		c := uint64(rng.Intn(nCust))
		p := uint64(rng.Intn(nProd))
		q := uint64(rng.Intn(50) + 1)
		f.fact = append(f.fact, [3]uint64{c, p, q})
		factIdx.Insert(p, []uint64{c, q})
	}

	f.factByProd = NewIndexedTable("fact[prodkey]", SimpleKey("prodkey", 16), []string{"custkey", "qty"}, factIdx)
	f.custByKey = NewIndexedTable("customers[custkey]", SimpleKey("custkey", 16), []string{"region"}, custIdx)
	f.prodByBrand = NewIndexedTable("products[brand]", SimpleKey("brand", 8), []string{"prodkey"}, prodIdx)
	return f
}

// oracleGroupSum computes, brute force, sum(qty) grouped by region for
// fact rows whose product brand is in brands and qty within [qlo, qhi].
func (f *fixture) oracleGroupSum(brands map[uint64]bool, qlo, qhi uint64) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for _, r := range f.fact {
		c, p, q := r[0], r[1], r[2]
		if !brands[f.prod[p]] || q < qlo || q > qhi {
			continue
		}
		out[f.cust[c]] += q
	}
	return out
}

// starPlan builds: σ_products(brand=17) → ⋈(σ_out, fact) assisted by
// customers, grouped by region with sum(qty). The selection's output, one
// row per product key, drives the join.
func starPlan(f *fixture, brand uint64) *Plan {
	sel := &Selection{
		Input: &Base{Table: f.prodByBrand},
		Pred:  Point(brand),
		Out: OutputSpec{
			Name:     "σ_products",
			Key:      SimpleKey("prodkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "prodkey"}},
			Cols:     nil,
			ColExprs: nil,
		},
	}
	join := &SelectJoin{
		SelInput:      sel,
		Main:          &Base{Table: f.factByProd},
		ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
		Assists: []Assist{{
			Input:     &Base{Table: f.custByKey},
			ProbeWith: "custkey",
		}},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(1, "qty")},
			Fold:     FoldSum(0),
		},
	}
	return &Plan{Root: join}
}

// sjPlan is starPlan composed (paper Section 4.3): the products selection
// probes straight into the fact index, so the whole query is one operator
// driven by the selection's point predicate.
func sjPlan(f *fixture, brand uint64) *Plan {
	return &Plan{Root: &SelectJoin{
		SelInput:      &Base{Table: f.prodByBrand},
		Pred:          Point(brand),
		Main:          &Base{Table: f.factByProd},
		ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
		Assists: []Assist{{
			Input:     &Base{Table: f.custByKey},
			ProbeWith: "custkey",
		}},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(1, "qty")},
			Fold:     FoldSum(0),
		},
	}}
}

// Between returns a predicate matching [lo, hi].
func Between(lo, hi uint64) KeyPred { return KeyPred{{Lo: lo, Hi: hi}} }

func resultAsMap(t *testing.T, res *Result) map[uint64]uint64 {
	t.Helper()
	m := map[uint64]uint64{}
	for _, row := range res.Rows {
		if len(row) != 2 {
			t.Fatalf("result row %v has %d fields, want 2", row, len(row))
		}
		if _, dup := m[row[0]]; dup {
			t.Fatalf("duplicate group key %d", row[0])
		}
		m[row[0]] = row[1]
	}
	return m
}

func TestStarJoinGroupMatchesOracle(t *testing.T) {
	f := buildFixture(1)
	for brand := uint64(0); brand < 4; brand++ {
		out, _, err := run(t, EnvConfig{}, starPlan(f, brand), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := resultAsMap(t, Extract(out))
		want := f.oracleGroupSum(map[uint64]bool{brand: true}, 0, ^uint64(0))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("brand %d: got %v, want %v", brand, got, want)
		}
	}
}

func TestBufferSizesGiveIdenticalResults(t *testing.T) {
	f := buildFixture(2)
	var ref map[uint64]uint64
	for _, bs := range []int{1, 64, 512, 2048} {
		out, _, err := run(t, EnvConfig{}, starPlan(f, 3), Options{BufferSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		got := resultAsMap(t, Extract(out))
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("buffer size %d changed the result", bs)
		}
	}
}

func TestParallelGivesIdenticalResults(t *testing.T) {
	f := buildFixture(3)
	seq, _, err := run(t, EnvConfig{}, starPlan(f, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := run(t, EnvConfig{Workers: WorkersAuto}, starPlan(f, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultAsMap(t, Extract(seq)), resultAsMap(t, Extract(par))) {
		t.Fatal("parallel execution changed the result")
	}
}

func TestSelectionResidualAndRange(t *testing.T) {
	f := buildFixture(4)
	// Select fact rows with qty in [10, 20] via a payload predicate on a
	// full scan, output keyed on custkey with qty payload, then aggregate
	// per region through a join with customers.
	factShape := f.factByProd
	sel := &Selection{
		Input: &Base{Table: factShape},
		Pred:  nil, // full scan
		Preds: []AttrPred{{Ref: Ref{Input: 0, Attr: "qty"}, Pred: Between(10, 20)}},
		Out: OutputSpec{
			Name:     "σ_fact",
			Key:      SimpleKey("custkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
			Cols:     []string{"qty"},
			ColExprs: []RowExpr{Attr(0, "qty")},
		},
	}
	join := &SelectJoin{
		SelInput:      &Base{Table: f.custByKey},
		Main:          sel,
		ProbeMainWith: Ref{Input: 0, Attr: "custkey"},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 0, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(1, "qty")},
			Fold:     FoldSum(0),
		},
	}
	out, _, err := run(t, EnvConfig{}, &Plan{Root: join}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := resultAsMap(t, Extract(out))
	want := map[uint64]uint64{}
	for _, r := range f.fact {
		if r[2] >= 10 && r[2] <= 20 {
			want[f.cust[r[0]]] += r[2]
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSelectJoinEquivalentToSelectionPlusJoin(t *testing.T) {
	f := buildFixture(5)
	brand := uint64(7)
	composed, _, err := run(t, EnvConfig{}, sjPlan(f, brand), Options{})
	if err != nil {
		t.Fatal(err)
	}
	separate, _, err := run(t, EnvConfig{}, starPlan(f, brand), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultAsMap(t, Extract(composed)), resultAsMap(t, Extract(separate))) {
		t.Fatal("select-join result differs from selection+join plan")
	}
	want := f.oracleGroupSum(map[uint64]bool{brand: true}, 0, ^uint64(0))
	if !reflect.DeepEqual(resultAsMap(t, Extract(composed)), want) {
		t.Fatal("select-join result differs from oracle")
	}
}

// TestAssistProbesFactColumn: an assist probes with a payload column of the
// main input, and any other name fails the run with an error that names
// the assist — the main input's key attribute, an attribute of the driving
// input, an unknown name. The plan has intermediates on both sides of the
// join, and runs on 1 and 2 workers, with and without a one-byte memory
// budget; the Env is left with no spill file and no running helper.
func TestAssistProbesFactColumn(t *testing.T) {
	f := buildFixture(8)
	products := &Selection{Input: &Base{Table: f.prodByBrand}, Out: OutputSpec{
		Name: "σ_products", Key: SimpleKey("prodkey", 16), KeyRefs: []Ref{{Input: 0, Attr: "prodkey"}},
		Cols: []string{"brand"}, ColExprs: []RowExpr{Attr(0, "brand")},
	}}
	customers := &Selection{Input: &Base{Table: f.custByKey}, Pred: Between(0, nCust/2), Out: OutputSpec{
		Name: "σ_customers", Key: SimpleKey("custkey", 16), KeyRefs: []Ref{{Input: 0, Attr: "custkey"}},
		Cols: []string{"region"}, ColExprs: []RowExpr{Attr(0, "region")},
	}}
	for _, name := range []string{"prodkey", "brand", "nosuch"} {
		pl := &Plan{Root: &SelectJoin{
			SelInput:      products,
			Main:          &Base{Table: f.factByProd},
			ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
			Assists:       []Assist{{Input: &Base{Table: f.custByKey}, ProbeWith: "custkey"}, {Input: customers, ProbeWith: name}},
			Out: OutputSpec{
				Name: "Γ_region", Key: SimpleKey("region", 8), KeyRefs: []Ref{{Input: 3, Attr: "region"}},
				Cols: []string{"sum_qty"}, ColExprs: []RowExpr{Attr(1, "qty")}, Fold: FoldSum(0),
			},
		}}
		for _, workers := range []int{1, 2} {
			for _, budget := range []int64{0, 1} {
				_, _, err := run(t, EnvConfig{Workers: workers, MemBudget: budget}, pl, Options{})
				if err == nil || !strings.Contains(err.Error(), "assist 1 (σ→σ_customers)") || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
					t.Errorf("ProbeWith %q, Workers %d, MemBudget %d: error %v, want one naming assist 1 (σ→σ_customers) and %q",
						name, workers, budget, err, name)
				}
			}
		}
	}
}

func TestComposedGroupKeyOutput(t *testing.T) {
	f := buildFixture(6)
	// Group by (region, brand): a composed output key, checking both the
	// composition and the sortedness of extraction.
	sel := &Selection{
		Input: &Base{Table: f.prodByBrand},
		Pred:  Between(0, nBrand-1), // all brands
		Out: OutputSpec{
			Name:     "σ_products",
			Key:      SimpleKey("prodkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "prodkey"}},
			Cols:     []string{"brand"},
			ColExprs: []RowExpr{Attr(0, "brand")},
		},
	}
	join := &SelectJoin{
		SelInput:      sel,
		Main:          &Base{Table: f.factByProd},
		ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
		Assists: []Assist{{
			Input:     &Base{Table: f.custByKey},
			ProbeWith: "custkey",
		}},
		Out: OutputSpec{
			Name:     "Γ_region_brand",
			Key:      GroupKey([]string{"region", "brand"}, []uint{8, 8}),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}, {Input: 0, Attr: "brand"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(1, "qty")},
			Fold:     FoldSum(0),
		},
	}
	out, _, err := run(t, EnvConfig{}, &Plan{Root: join}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Extract(out)
	want := map[[2]uint64]uint64{}
	for _, r := range f.fact {
		want[[2]uint64{f.cust[r[0]], f.prod[r[1]]}] += r[2]
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d groups, want %d", len(res.Rows), len(want))
	}
	var prev [2]uint64
	for i, row := range res.Rows {
		k := [2]uint64{row[0], row[1]}
		if want[k] != row[2] {
			t.Fatalf("group %v = %d, want %d", k, row[2], want[k])
		}
		if i > 0 && !(prev[0] < k[0] || (prev[0] == k[0] && prev[1] < k[1])) {
			t.Fatal("extraction not sorted by composed key")
		}
		prev = k
	}
}

func TestKeylessSingleGroupOutput(t *testing.T) {
	f := buildFixture(7)
	// sum(qty) over everything: keyless output, one group.
	sel := &Selection{
		Input: &Base{Table: f.factByProd},
		Out: OutputSpec{
			Name:     "Γ_all",
			Key:      KeySpec{}, // constant key 0
			KeyRefs:  nil,
			Cols:     []string{"sum_qty", "count"},
			ColExprs: []RowExpr{Attr(0, "qty"), Computed(func([]uint64) uint64 { return 1 })},
			Fold:     FoldSum(0, 1),
		},
	}
	out, _, err := run(t, EnvConfig{}, &Plan{Root: sel}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Extract(out)
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(res.Rows))
	}
	var wantSum uint64
	for _, r := range f.fact {
		wantSum += r[2]
	}
	if res.Rows[0][0] != wantSum || res.Rows[0][1] != nFact {
		t.Fatalf("sum/count = %d/%d, want %d/%d", res.Rows[0][0], res.Rows[0][1], wantSum, nFact)
	}
}

func TestStatsCollection(t *testing.T) {
	f := buildFixture(9)
	out, stats, err := run(t, EnvConfig{}, starPlan(f, 2), Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || len(stats.Ops) != 2 {
		t.Fatalf("stats = %+v, want 2 operators", stats)
	}
	// Post-order: selection before join.
	if stats.Ops[0].Label != "σ→σ_products" {
		t.Errorf("first op = %q", stats.Ops[0].Label)
	}
	join := stats.Ops[1]
	if join.OutKeys != out.Keys() || join.OutRows != out.Rows() {
		t.Errorf("join stats out %d/%d, table %d/%d", join.OutKeys, join.OutRows, out.Keys(), out.Rows())
	}
	// The main probe looks up each selected product once. The customer
	// index has one row per key, so the assist is read by position, never
	// looked up: every fact row the main probe yields is either filtered
	// or indexed.
	prods, combos := 0, 0
	for _, b := range f.prod {
		if b == 2 {
			prods++
		}
	}
	for _, r := range f.fact {
		if f.prod[r[1]] == 2 {
			combos++
		}
	}
	if combos == 0 || join.ProbeLookups != prods || join.ProbeFiltered+join.TuplesIndexed != combos {
		t.Errorf("join probes %d, filtered %d + indexed %d; want %d products and %d fact rows", join.ProbeLookups, join.ProbeFiltered, join.TuplesIndexed, prods, combos)
	}
	if join.Time <= 0 || join.IndexTime < 0 || join.MaterializeTime < 0 {
		t.Errorf("implausible times: %+v", join)
	}
	if stats.String() == "" {
		t.Error("empty stats string")
	}
}

// TestProbeFilteredCounts pins the probe counts of a select-join over a
// sparse customer index — every third customer of [90, 390], so fact
// rows' customers fall below its Min, above its Max and into its holes.
// The main probe looks up each selected product. Each fact row it yields
// is filtered when its customer is absent; otherwise, with one row per
// customer, the assist is read by position and never looked up, and with
// two rows per customer its probe stage looks the customer up. Over the
// dense customer index no key is filtered, and no customer looked up.
func TestProbeFilteredCounts(t *testing.T) {
	f := buildFixture(9)
	const brand = 2
	inSparse := func(c uint64) bool { return c >= 90 && c <= 390 && (c-90)%3 == 0 }
	prods, hits, misses := 0, 0, 0
	for _, b := range f.prod {
		if b == brand {
			prods++
		}
	}
	for _, r := range f.fact {
		if f.prod[r[1]] != brand {
			continue
		}
		if inSparse(r[0]) {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("fixture: %d hits, %d misses", hits, misses)
	}
	for _, dup := range []int{1, 2} {
		idx := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
		for c := uint64(0); c < nCust; c++ {
			for j := 0; j < dup && inSparse(c); j++ {
				idx.Insert(c, []uint64{f.cust[c]})
			}
		}
		sparse := NewIndexedTable("customers[custkey]", SimpleKey("custkey", 16), []string{"region"}, idx)
		want := map[uint64]uint64{}
		for _, r := range f.fact {
			if f.prod[r[1]] == brand && inSparse(r[0]) {
				want[f.cust[r[0]]] += uint64(dup) * r[2]
			}
		}
		probes := prods
		if dup > 1 {
			probes += hits
		}
		for _, workers := range []int{1, 2} {
			for _, bs := range []int{1, 7, 512} {
				pl := sjPlan(f, brand)
				pl.Root.(*SelectJoin).Assists[0].Input = &Base{Table: sparse}
				out, stats, err := run(t, EnvConfig{Workers: workers}, pl, Options{BufferSize: bs, CollectStats: true})
				if err != nil {
					t.Fatal(err)
				}
				if got := resultAsMap(t, Extract(out)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d rows per customer, Workers %d BufferSize %d: got %v, want %v", dup, workers, bs, got, want)
				}
				op := stats.Ops[0]
				if op.ProbeLookups != probes || op.ProbeFiltered != misses {
					t.Errorf("%d rows per customer, Workers %d BufferSize %d: probes %d, filtered %d; want %d, %d",
						dup, workers, bs, op.ProbeLookups, op.ProbeFiltered, probes, misses)
				}
				if s := stats.String(); !strings.Contains(s, fmt.Sprintf("probes %d, filtered %d", probes, misses)) {
					t.Errorf("stats string lacks the probe counts:\n%s", s)
				}
				if dup > 1 {
					continue
				}
				_, dense, err := run(t, EnvConfig{Workers: workers}, sjPlan(f, brand), Options{BufferSize: bs, CollectStats: true})
				if err != nil {
					t.Fatal(err)
				}
				if op := dense.Ops[0]; op.ProbeLookups != prods || op.ProbeFiltered != 0 {
					t.Errorf("dense assist, Workers %d BufferSize %d: probes %d, filtered %d; want %d, 0",
						workers, bs, op.ProbeLookups, op.ProbeFiltered, prods)
				}
			}
		}
	}
}

// PlanStats.Ops lists operators in one post-order, children in input order
// and a shared operator once, however the pool schedules the plan: at two
// workers the independent branches below (two select-joins, each over its
// own dimension selection and one they share) resolve concurrently and
// finish in any order, yet every run lists the labels of the serial run.
func TestPlanStatsOpsOrderIsDeterministic(t *testing.T) {
	f := buildFixture(3)
	shared := dimSel(f, "shared")
	left, right := dimPlan(f, 1, dimSel(f, "a"), shared), dimPlan(f, 2, shared, dimSel(f, "b"))
	left.Out.Name, right.Out.Name = "Γ_a", "Γ_b"
	root := sharedPlan(f, 1, shared)
	root.SelInput, root.Main = left, right
	labels := func(workers int) []string {
		_, stats, err := run(t, EnvConfig{Workers: workers}, &Plan{Root: root}, Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		var ls []string
		for _, op := range stats.Ops {
			ls = append(ls, op.Label)
		}
		return ls
	}
	want := []string{"σ→a", "σ→shared", "σ⋈4→Γ_a", "σ→b", "σ⋈4→Γ_b", "⋈2→⋈_region"}
	if got := labels(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("serial Ops labels %q, want %q", got, want)
	}
	for i := range 20 {
		if got := labels(2); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d at 2 workers: Ops labels %q, want %q", i, got, want)
		}
	}
}

// TestPlanStatsStringShowsMorselFanOut: which worker claims a morsel is
// scheduling luck, so an operator whose morsels one worker took alone
// must still print its fan-out; a serial operator prints no bracket.
func TestPlanStatsStringShowsMorselFanOut(t *testing.T) {
	ps := &PlanStats{Workers: 3, Ops: []OperatorStats{
		{Label: "fanned", Workers: 1, Morsels: 12},
		{Label: "serial", Workers: 1, Morsels: 1},
	}}
	s := ps.String()
	if !strings.Contains(s, "[1 workers, 12 morsels]") {
		t.Errorf("fan-out missing from stats string:\n%s", s)
	}
	if strings.Count(s, "morsels]") != 1 {
		t.Errorf("serial operator printed a morsel bracket:\n%s", s)
	}
}

// TestEveryOperatorMaterializes pins the paper's execution model: every
// non-base operator builds its output index, so PlanStats.Ops holds one
// row per such operator, in post-order, each with a non-empty output — for
// a σ→σ cascade and a select-join feeding a join, serially and on two
// workers.
func TestEveryOperatorMaterializes(t *testing.T) {
	f := buildFixture(23)
	byBrand := func(name string) OutputSpec {
		return OutputSpec{
			Name:     name,
			Key:      SimpleKey("brand", 8),
			KeyRefs:  []Ref{{Input: 0, Attr: "brand"}},
			Cols:     []string{"prodkey"},
			ColExprs: []RowExpr{Attr(0, "prodkey")},
		}
	}
	selSel := func() *Plan {
		inner := &Selection{Input: &Base{Table: f.prodByBrand}, Out: byBrand("ident")}
		return &Plan{Root: &Selection{Input: inner, Pred: Between(2, 5), Out: byBrand("band")}}
	}
	sjJoin := func() *Plan {
		sj := &SelectJoin{
			SelInput:      &Base{Table: f.prodByBrand},
			Pred:          Point(2),
			Main:          &Base{Table: f.factByProd},
			ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
			Out: OutputSpec{
				Name:     "σ⋈_fact",
				Key:      SimpleKey("custkey", 16),
				KeyRefs:  []Ref{{Input: 1, Attr: "custkey"}},
				Cols:     []string{"qty"},
				ColExprs: []RowExpr{Attr(1, "qty")},
			},
		}
		return &Plan{Root: &SelectJoin{
			SelInput:      &Base{Table: f.custByKey},
			Main:          sj,
			ProbeMainWith: Ref{Input: 0, Attr: "custkey"},
			Out: OutputSpec{
				Name:     "Γ_region",
				Key:      SimpleKey("region", 8),
				KeyRefs:  []Ref{{Input: 0, Attr: "region"}},
				Cols:     []string{"sum_qty"},
				ColExprs: []RowExpr{Attr(1, "qty")},
				Fold:     FoldSum(0),
			},
		}}
	}
	var postOrder func(op Operator, labels []string) []string
	postOrder = func(op Operator, labels []string) []string {
		for _, c := range op.Children() {
			labels = postOrder(c, labels)
		}
		if _, isBase := op.(*Base); !isBase {
			labels = append(labels, op.Label())
		}
		return labels
	}
	for name, mkPlan := range map[string]func() *Plan{"σ→σ": selSel, "σ⋈→⋈": sjJoin} {
		var serial [][]uint64
		for _, workers := range []int{1, 2} {
			plan := mkPlan()
			out, stats, err := run(t, EnvConfig{Workers: workers}, plan, Options{CollectStats: true})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			want := postOrder(plan.Root, nil)
			if len(stats.Ops) != len(want) {
				t.Fatalf("%s workers=%d: %d operator rows, want %d (%v)", name, workers, len(stats.Ops), len(want), want)
			}
			for i, op := range stats.Ops {
				if op.Label != want[i] {
					t.Errorf("%s workers=%d: row %d is %q, want %q", name, workers, i, op.Label, want[i])
				}
				if op.OutKeys <= 0 || op.OutBytes <= 0 {
					t.Errorf("%s workers=%d: %s built no output index (%d keys, %d B)", name, workers, op.Label, op.OutKeys, op.OutBytes)
				}
			}
			rows := Extract(out).Rows
			if workers == 1 {
				serial = rows
			} else if !reflect.DeepEqual(rows, serial) {
				t.Errorf("%s: two workers changed the result", name)
			}
		}
	}
}

func TestNewIndexStructureChoice(t *testing.T) {
	if got := NewIndex(IndexConfig{KeyBits: 32}); got.KeyBits() != 32 {
		t.Errorf("32-bit index reports %d key bits", got.KeyBits())
	}
	if _, isKiss := NewIndex(IndexConfig{KeyBits: 20}).(*kisstree.Tree); !isKiss {
		t.Error("narrow keys did not pick the KISS-Tree")
	}
	if _, isPT := NewIndex(IndexConfig{KeyBits: 33}).(*prefixtree.Tree); !isPT {
		t.Error("wide keys did not pick the prefix tree")
	}
}
