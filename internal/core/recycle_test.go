package core

import (
	"reflect"
	"testing"
)

// Recycling must be a pure storage decision: results match the brute-force
// oracle, and the plan stats record chunks parked and reused — the
// drop→reuse round trip across operators — serially, under morsel
// parallelism, and combined with a spill budget.
func TestRecycleMatchesBaseline(t *testing.T) {
	f := buildFixture(11)
	// Three operator levels: the selection output drops when the join
	// finishes, so the final selection's index allocations can draw from
	// the pool — the cross-operator drop→reuse cycle the recycler exists
	// for.
	mkPlan := func() *Plan {
		join := starPlan(f, 2).Root
		return &Plan{Root: &Selection{
			Input: join,
			Pred:  nil,
			Out: OutputSpec{
				Name:     "having",
				Key:      SimpleKey("region", 8),
				KeyRefs:  []Ref{{Input: 0, Attr: "region"}},
				Cols:     []string{"sum_qty"},
				ColExprs: []RowExpr{Attr(0, "sum_qty")},
			},
		}}
	}
	want := f.oracleGroupSum(map[uint64]bool{2: true}, 0, ^uint64(0))
	for _, opt := range []EnvConfig{
		{},
		{Workers: 3},
		{Workers: 3, MemBudget: 1},
	} {
		out, stats, err := run(t, opt, mkPlan(), Options{CollectStats: true})
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if got := resultAsMap(t, Extract(out)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: recycled result %v, oracle %v", opt, got, want)
		}
		if stats.ChunksRecycled == 0 {
			t.Fatalf("%+v: no chunks parked: %+v", opt, stats)
		}
		if stats.ChunksReused == 0 || stats.RecycleSavedBytes == 0 {
			t.Fatalf("%+v: no chunks reused: %+v", opt, stats)
		}
	}
}

// A DAG whose intermediate feeds two parents must only be dropped after
// the second parent finished; the result must stay correct.
func TestRecycleDropsOnlyAfterLastConsumer(t *testing.T) {
	f := buildFixture(12)
	sel := &Selection{
		Input: &Base{Table: f.prodByBrand},
		Pred:  Between(0, 10),
		Out: OutputSpec{
			Name:    "σ_products",
			Key:     SimpleKey("prodkey", 16),
			KeyRefs: []Ref{{Input: 0, Attr: "prodkey"}},
		},
	}
	// Both join inputs read the same selection output (a self-join): every
	// key survives, and the cross product squares the multiplicity.
	join := &SelectJoin{
		SelInput:      sel,
		Main:          sel,
		ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
		Out: OutputSpec{
			Name:    "both",
			Key:     SimpleKey("prodkey", 16),
			KeyRefs: []Ref{{Input: 0, Attr: "prodkey"}},
		},
	}
	// Brute force: each product key once, since 1×1 = 1.
	var want [][]uint64
	for p := uint64(0); p < nProd; p++ {
		if f.prod[p] <= 10 {
			want = append(want, []uint64{p})
		}
	}
	got, stats, err := run(t, EnvConfig{}, &Plan{Root: join}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if rows := Extract(got).Rows; !reflect.DeepEqual(rows, want) {
		t.Fatalf("shared-intermediate result %v, oracle %v", rows, want)
	}
	if stats.ChunksRecycled == 0 {
		t.Fatalf("selection output never recycled: %+v", stats)
	}
}
