package core

import (
	"math/rand"
	"reflect"
	"testing"

	"qppt/internal/duplist"
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

// starPlan builds: σ_products(brand=17) → ⋈(fact, σ_out) assisted by
// customers, grouped by region with sum(qty).
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
	join := &Join{
		Left:  &Base{Table: f.factByProd},
		Right: sel,
		Assists: []Assist{{
			Input:     &Base{Table: f.custByKey},
			ProbeWith: Ref{Input: 0, Attr: "custkey"},
		}},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(0, "qty")},
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
			ProbeWith: Ref{Input: 1, Attr: "custkey"},
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
	// Select fact rows with qty in [10, 20] via residual on a full scan,
	// output keyed on custkey with qty payload, then aggregate per region
	// through a join with customers.
	factShape := f.factByProd
	qtyOff := CtxOffsets([]*IndexedTable{factShape}, Ref{Input: 0, Attr: "qty"})[0]
	sel := &Selection{
		Input:    &Base{Table: factShape},
		Pred:     nil, // full scan
		Residual: func(ctx []uint64) bool { return ctx[qtyOff] >= 10 && ctx[qtyOff] <= 20 },
		Out: OutputSpec{
			Name:     "σ_fact",
			Key:      SimpleKey("custkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
			Cols:     []string{"qty"},
			ColExprs: []RowExpr{Attr(0, "qty")},
		},
	}
	join := &Join{
		Left:  sel,
		Right: &Base{Table: f.custByKey},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 1, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(0, "qty")},
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
	join := &Join{
		Left:  &Base{Table: f.factByProd},
		Right: sel,
		Assists: []Assist{{
			Input:     &Base{Table: f.custByKey},
			ProbeWith: Ref{Input: 0, Attr: "custkey"},
		}},
		Out: OutputSpec{
			Name:     "Γ_region_brand",
			Key:      GroupKey([]string{"region", "brand"}, []uint{8, 8}),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}, {Input: 1, Attr: "brand"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(0, "qty")},
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
	if join.ProbeLookups == 0 {
		t.Error("join reported no assist lookups")
	}
	if join.Time <= 0 || join.IndexTime < 0 || join.MaterializeTime < 0 {
		t.Errorf("implausible times: %+v", join)
	}
	if stats.String() == "" {
		t.Error("empty stats string")
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
		return &Plan{Root: &Join{
			Left:  sj,
			Right: &Base{Table: f.custByKey},
			Out: OutputSpec{
				Name:     "Γ_region",
				Key:      SimpleKey("region", 8),
				KeyRefs:  []Ref{{Input: 1, Attr: "region"}},
				Cols:     []string{"sum_qty"},
				ColExprs: []RowExpr{Attr(0, "qty")},
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
	if _, isKiss := NewIndex(IndexConfig{KeyBits: 20}).(kissIndex); !isKiss {
		t.Error("narrow keys did not pick the KISS-Tree")
	}
	if _, isPT := NewIndex(IndexConfig{KeyBits: 33}).(ptIndex); !isPT {
		t.Error("wide keys did not pick the prefix tree")
	}
}

func TestSyncScanMixedKinds(t *testing.T) {
	a := NewIndex(IndexConfig{KeyBits: 20})                          // KISS
	b := ptIndex{prefixtree.MustNew(prefixtree.Config{KeyBits: 20})} // PT
	want := 0
	for i := uint64(0); i < 3000; i += 3 {
		a.Insert(i, nil)
	}
	for i := uint64(0); i < 3000; i += 5 {
		b.Insert(i, nil)
	}
	for i := uint64(0); i < 3000; i += 15 {
		want++
	}
	got := 0
	SyncScan(a, b, func(k uint64, va, vb *duplist.List) bool {
		if k%15 != 0 {
			t.Fatalf("phantom match %d", k)
		}
		got++
		return true
	})
	if got != want {
		t.Fatalf("mixed-kind sync scan found %d, want %d", got, want)
	}
}
