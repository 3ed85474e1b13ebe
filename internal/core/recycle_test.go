package core

import (
	"reflect"
	"testing"
)

// Options.Recycle must be a pure storage decision: results bit-identical,
// the plan stats recording chunks parked and reused — the drop→reuse
// round trip across operators — serially, under morsel parallelism, and
// combined with a spill budget.
func TestRecycleMatchesBaseline(t *testing.T) {
	f := buildFixture(11)
	// Three operator levels: the selection output drops when the join
	// finishes, so the final HAVING's index allocations can draw from the
	// pool — the cross-operator drop→reuse cycle the recycler exists for.
	mkPlan := func() *Plan {
		join := starPlan(f, 2).Root
		return &Plan{Root: &Having{
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
	want, _, err := run(t, EnvConfig{}, mkPlan(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes := Extract(want)
	for _, opt := range []EnvConfig{
		{Recycle: true},
		{Recycle: true, Workers: 3},
		{Recycle: true, Workers: 3, MemBudget: 1},
	} {
		out, stats, err := run(t, opt, mkPlan(), Options{CollectStats: true})
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if !reflect.DeepEqual(Extract(out).Rows, wantRes.Rows) {
			t.Fatalf("%+v: recycled result differs", opt)
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
	// Both join inputs read the same selection output (a self-intersect):
	// every key survives, and the cross product squares the multiplicity.
	join := &Intersect{
		A: sel,
		B: sel,
		Out: OutputSpec{
			Name:    "both",
			Key:     SimpleKey("prodkey", 16),
			KeyRefs: []Ref{{Input: 0, Attr: "prodkey"}},
		},
	}
	plan := &Plan{Root: join}
	want, _, err := run(t, EnvConfig{}, &Plan{Root: join}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := run(t, EnvConfig{Recycle: true}, plan, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Extract(got).Rows, Extract(want).Rows) {
		t.Fatal("shared-intermediate recycled result differs")
	}
	if stats.ChunksRecycled == 0 {
		t.Fatalf("selection output never recycled: %+v", stats)
	}
}

// An index kind that cannot freeze must simply never be registered with
// the spill manager (stay resident); freezerOf is the gate.
func TestFreezerOfUnspillableKind(t *testing.T) {
	plain := struct{ Index }{NewIndex(IndexConfig{KeyBits: 16})}
	if freezerOf(plain) != nil {
		t.Fatal("wrapper without spill hooks reported as freezable")
	}
	if freezerOf(NewIndex(IndexConfig{KeyBits: 16})) == nil {
		t.Fatal("prefix-tree index kind not freezable")
	}
	sh := newShardedIndex([]Index{plain}, []uint64{0}, []uint64{^uint64(0)}, 64)
	if freezerOf(sh) != nil {
		t.Fatal("sharded index over an unspillable shard reported as freezable")
	}
}
