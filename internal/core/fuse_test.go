package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// buildChains must detect exactly the single-consumer streaming edges:
// the star plan's σ_products → join edge and a σ→σ range stream fuse; a
// multi-consumer intermediate and a folding producer stay materialized.
func TestBuildChainsShapes(t *testing.T) {
	f := buildFixture(14)
	chainsOf := func(root Operator) map[Operator]*fuseChain {
		uses := map[Operator]int{}
		countUses(root, uses)
		uses[root]++
		return buildChains(root, uses)
	}

	// Star plan: one chain, selection streaming into the join's right
	// input (ordinal 1).
	plan := starPlan(f, 2)
	chains := chainsOf(plan.Root)
	if len(chains) != 1 {
		t.Fatalf("star plan has %d chains, want 1", len(chains))
	}
	ch := chains[plan.Root]
	if ch == nil {
		t.Fatal("star plan chain not keyed by its top operator")
	}
	if len(ch.links) != 2 || ch.ords[0] != -1 || ch.ords[1] != 1 {
		t.Fatalf("chain shape links=%d ords=%v, want 2 links feeding ordinal 1", len(ch.links), ch.ords)
	}
	if _, ok := ch.links[0].(*Selection); !ok {
		t.Fatalf("chain bottom is %T, want *Selection", ch.links[0])
	}
	if FusableEdges(plan.Root) != 1 {
		t.Fatalf("FusableEdges = %d, want 1", FusableEdges(plan.Root))
	}

	// Multi-consumer: both intersect inputs read the same selection —
	// the index is genuinely shared, nothing fuses.
	sel := &Selection{
		Input: &Base{Table: f.prodByBrand},
		Pred:  Between(0, 10),
		Out: OutputSpec{
			Name:    "σ_products",
			Key:     SimpleKey("prodkey", 16),
			KeyRefs: []Ref{{Input: 0, Attr: "prodkey"}},
		},
	}
	shared := &Intersect{A: sel, B: sel, Out: sel.Out}
	if got := chainsOf(shared); len(got) != 0 {
		t.Fatalf("multi-consumer selection fused: %d chains", len(got))
	}
	if FusableEdges(shared) != 0 {
		t.Fatal("FusableEdges counted a multi-consumer edge")
	}

	// Folding producer: the fold must see the whole multiset before the
	// consumer reads it, so the edge stays materialized.
	foldSel := &Selection{
		Input: &Base{Table: f.factByProd},
		Out: OutputSpec{
			Name:     "Γ_qty",
			Key:      SimpleKey("custkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(0, "qty")},
			Fold:     FoldSum(0),
		},
	}
	if fusableProducer(foldSel, map[Operator]int{foldSel: 1}) {
		t.Fatal("folding selection reported fusable")
	}

	// Selection consumer (range-stream fusion): the σ→σ edge fuses — the
	// outer selection applies its predicate on the ordered range stream
	// instead of scanning a materialized intermediate.
	outer := &Selection{
		Input: sel,
		Pred:  Between(2, 5),
		Out:   sel.Out,
	}
	got := chainsOf(outer)
	if len(got) != 1 {
		t.Fatalf("σ→σ plan has %d chains, want 1", len(got))
	}
	sch := got[Operator(outer)]
	if sch == nil || len(sch.links) != 2 || sch.ords[1] != 0 {
		t.Fatalf("σ→σ chain shape %+v, want 2 links feeding ordinal 0", sch)
	}
	if FusableEdges(outer) != 1 {
		t.Fatalf("FusableEdges(σ→σ) = %d, want 1", FusableEdges(outer))
	}
}

// Fusion must be a pure execution strategy: results bit-identical to the
// materialized plan across serial/parallel execution and with a spill
// budget, with the fused-edge counter moving.
func TestFusedMatchesMaterialized(t *testing.T) {
	f := buildFixture(15)
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
	want, _, err := run(t, EnvConfig{}, mkPlan(), Options{NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	wantRes := Extract(want)
	for _, rc := range []runConfig{
		{},
		{env: EnvConfig{Workers: 3}},
		{env: EnvConfig{MemBudget: 1}},
		{env: EnvConfig{Workers: 3, MemBudget: 1}},
		{env: EnvConfig{Workers: 3, MemBudget: 1, Recycle: true}},
	} {
		rc.opts.CollectStats = true
		out, stats, err := run(t, rc.env, mkPlan(), rc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", rc, err)
		}
		if !reflect.DeepEqual(Extract(out).Rows, wantRes.Rows) {
			t.Fatalf("%+v: fused result differs", rc)
		}
		if stats.FusedEdges != 1 {
			t.Fatalf("%+v: FusedEdges = %d, want 1", rc, stats.FusedEdges)
		}
	}
}

// Per-operator stats of a fused chain: the bypassed link reports its
// streamed combinations under its own label, the top link reports the
// materialized output, and the plan stats surface the skipped edge.
func TestFusedStatsAttribution(t *testing.T) {
	f := buildFixture(16)
	out, stats, err := run(t, EnvConfig{}, starPlan(f, 2), Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FusedEdges != 1 {
		t.Fatalf("FusedEdges = %d, want 1", stats.FusedEdges)
	}
	if len(stats.Ops) != 2 {
		t.Fatalf("%d operator rows, want 2", len(stats.Ops))
	}
	sel, join := stats.Ops[0], stats.Ops[1]
	if sel.Label != "σ→σ_products" || !sel.Fused {
		t.Fatalf("first op %q fused=%v, want the fused selection", sel.Label, sel.Fused)
	}
	if sel.TuplesStreamed == 0 || sel.TuplesIndexed != 0 {
		t.Fatalf("fused selection streamed=%d indexed=%d, want streamed>0 indexed=0", sel.TuplesStreamed, sel.TuplesIndexed)
	}
	if sel.Time <= 0 {
		t.Fatal("fused selection reported no time")
	}
	if join.Fused || join.OutKeys != out.Keys() || join.OutRows != out.Rows() {
		t.Fatalf("top join stats %+v do not match output %d/%d", join, out.Keys(), out.Rows())
	}
	s := stats.String()
	if !strings.Contains(s, "fusion: 1 intermediate indexes skipped") || !strings.Contains(s, "combinations streamed") {
		t.Fatalf("stats string does not report fusion:\n%s", s)
	}
}

// Batch-boundary edges of fused range-stream execution: an identity σ
// feeding a band σ fuses with the envelope clip active (the output key is
// the scanned key), so every case also exercises the clipped scan path.
// Covered: the empty stream (the producer's predicate selects nothing),
// probe batches larger than a morsel's combination count (finish must
// cascade the partial batch through the stack), tiny batches forcing many
// flushes with a partial last one, and scalar forwarding.
func TestRangeStreamBatchEdges(t *testing.T) {
	f := buildFixture(18)
	outSpec := func(name string) OutputSpec {
		return OutputSpec{
			Name:     name,
			Key:      SimpleKey("brand", 8),
			KeyRefs:  []Ref{{Input: 0, Attr: "brand"}},
			Cols:     []string{"prodkey"},
			ColExprs: []RowExpr{Attr(0, "prodkey")},
		}
	}
	mkPlan := func(innerPred, outerPred KeyPred) *Plan {
		inner := &Selection{Input: &Base{Table: f.prodByBrand}, Pred: innerPred, Out: outSpec("ident")}
		return &Plan{Root: &Selection{Input: inner, Pred: outerPred, Out: outSpec("band")}}
	}
	band := Between(2, 5)

	want, _, err := run(t, EnvConfig{}, mkPlan(nil, band), Options{NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := Extract(want).Rows
	if len(wantRows) == 0 {
		t.Fatal("band selects nothing — fixture changed?")
	}
	for _, rc := range []runConfig{
		{},                             // default batch ≫ 200 combinations: only finish flushes
		{opts: Options{ProbeBatch: 3}}, // many flushes, partial last batch
		{opts: Options{ProbeBatch: 1}}, // scalar forwarding
		{EnvConfig{Workers: 3}, Options{ProbeBatch: 1024, MorselsPerWorker: 3}}, // batch spans every morsel's end
		{EnvConfig{Workers: 3, MemBudget: 1}, Options{ProbeBatch: 3}},
	} {
		rc.opts.CollectStats = true
		out, stats, err := run(t, rc.env, mkPlan(nil, band), rc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", rc, err)
		}
		if stats.FusedEdges != 1 {
			t.Fatalf("%+v: FusedEdges = %d, want 1", rc, stats.FusedEdges)
		}
		if !reflect.DeepEqual(Extract(out).Rows, wantRows) {
			t.Fatalf("%+v: fused σ→σ result differs", rc)
		}
	}

	// Empty stream: an empty (non-nil) inner predicate scans nothing; the
	// chain must finish cleanly with zero batches and an empty output.
	out, stats, err := run(t, EnvConfig{}, mkPlan(KeyPred{}, band), Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 0 {
		t.Fatalf("empty stream produced %d rows", out.Rows())
	}
	if stats.Ops[0].ProbeBatches != 0 {
		t.Fatalf("empty stream recorded %d probe batches", stats.Ops[0].ProbeBatches)
	}
}

// Batch flushes into a deep probe target must key-sort before
// forwarding. The driver streams a scrambled permutation, so batches
// arrive unsorted, and the target holds ≥ probeSortMinKeys keys, so
// sortPays picks the sorting path: narrow keys exercise the packed
// key<<32|index sort, wide (≥ 2³²) keys the comparator fallback.
func TestBatchSortPaths(t *testing.T) {
	const nKeys = 2 * probeSortMinKeys
	mkPlan := func(keyBits, shift uint) *Plan {
		rng := rand.New(rand.NewSource(21))
		tgtIdx := NewIndex(IndexConfig{KeyBits: keyBits, PayloadWidth: 1})
		for i := 0; i < nKeys; i++ {
			tgtIdx.Insert(uint64(i)<<shift, []uint64{uint64(rng.Intn(97))})
		}
		target := NewIndexedTable("target[k]", SimpleKey("k", keyBits), []string{"v"}, tgtIdx)
		drvIdx := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
		for a, i := range rng.Perm(nKeys) {
			drvIdx.Insert(uint64(a), []uint64{uint64(i) << shift})
		}
		driver := NewIndexedTable("driver[a]", SimpleKey("a", 16), []string{"k"}, drvIdx)
		sel := &Selection{
			Input: &Base{Table: driver},
			Out: OutputSpec{
				Name:    "σ_driver",
				Key:     SimpleKey("k", keyBits),
				KeyRefs: []Ref{{Input: 0, Attr: "k"}},
			},
		}
		return &Plan{Root: &Join{
			Left:  &Base{Table: target},
			Right: sel,
			Out: OutputSpec{
				Name:     "Γ_k",
				Key:      SimpleKey("k", keyBits),
				KeyRefs:  []Ref{{Input: 0, Attr: "k"}},
				Cols:     []string{"sum_v"},
				ColExprs: []RowExpr{Attr(0, "v")},
				Fold:     FoldSum(0),
			},
		}}
	}
	for _, tc := range []struct {
		name           string
		keyBits, shift uint
	}{
		{"packed32", 16, 0},  // keys < 2³²: packed key<<32|index sort
		{"wide-key", 48, 33}, // keys ≥ 2³²: comparator fallback
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := run(t, EnvConfig{}, mkPlan(tc.keyBits, tc.shift), Options{NoFuse: true})
			if err != nil {
				t.Fatal(err)
			}
			wantRows := Extract(want).Rows
			if len(wantRows) != nKeys {
				t.Fatalf("oracle has %d groups, want %d", len(wantRows), nKeys)
			}
			for _, rc := range []runConfig{
				{},
				{opts: Options{ProbeBatch: 7}},
				{EnvConfig{Workers: 3}, Options{MorselsPerWorker: 3}},
			} {
				rc.opts.CollectStats = true
				out, stats, err := run(t, rc.env, mkPlan(tc.keyBits, tc.shift), rc.opts)
				if err != nil {
					t.Fatalf("%+v: %v", rc, err)
				}
				if stats.FusedEdges != 1 {
					t.Fatalf("%+v: FusedEdges = %d, want 1", rc, stats.FusedEdges)
				}
				if !reflect.DeepEqual(Extract(out).Rows, wantRows) {
					t.Fatalf("%+v: sorted-batch result differs from materialized", rc)
				}
			}
		})
	}
}

// Cancelling a query mid-stream under a memory budget must surface
// ctx.Err() and drain every pin: the plan's deferred spill-manager Close
// hangs on a leaked pin, so this test completing is the assertion.
func TestFusedChainCancellationDrainsPins(t *testing.T) {
	f := buildFixture(19)
	qctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fed := 0
	inner := &Selection{
		Input: &Base{Table: f.factByProd},
		Residual: func([]uint64) bool {
			fed++
			if fed == 5000 {
				cancel() // mid-scan, with combinations buffered in the probe batch
			}
			return true
		},
		Out: OutputSpec{
			Name:     "ident",
			Key:      SimpleKey("prodkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "prodkey"}},
			Cols:     []string{"custkey", "qty"},
			ColExprs: []RowExpr{Attr(0, "custkey"), Attr(0, "qty")},
		},
	}
	outer := &Selection{
		Input: inner,
		Pred:  Between(0, 1<<16-1),
		Out: OutputSpec{
			Name:     "band",
			Key:      SimpleKey("prodkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "prodkey"}},
			Cols:     []string{"custkey", "qty"},
			ColExprs: []RowExpr{Attr(0, "custkey"), Attr(0, "qty")},
		},
	}
	_, _, err := newTestEnv(t, EnvConfig{MemBudget: 1}).Run(qctx, &Plan{Root: outer}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fused chain returned %v, want context.Canceled", err)
	}
}

// frostOrder without a spill manager must be the identity permutation —
// locality ordering only exists to prefer resident inputs over frozen
// ones, and without a budget nothing is ever frozen.
func TestFrostOrderIdentityWithoutSpill(t *testing.T) {
	f := buildFixture(17)
	ex := &executor{}
	ops := []Operator{&Base{Table: f.custByKey}, &Base{Table: f.factByProd}, &Base{Table: f.prodByBrand}}
	order := ex.frostOrder(ops)
	if len(order) != len(ops) {
		t.Fatalf("frostOrder returned %d indexes for %d ops", len(order), len(ops))
	}
	for i, o := range order {
		if o != i {
			t.Fatalf("frostOrder without spill = %v, want identity", order)
		}
	}
}
