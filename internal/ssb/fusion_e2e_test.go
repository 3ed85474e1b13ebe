package ssb

import (
	"context"
	"reflect"
	"testing"

	"qppt/internal/catalog"
	"qppt/internal/core"
)

// TestFusionMatchesMaterialized asserts bit-identical results between
// fused (default) and materialized (NoFuse) execution for every SSB
// query, across plan shapes, serial and parallel execution, with a
// sub-peak memory budget forcing the materialized intermediates through
// the spill path, and with both batched (default) and scalar
// (ProbeBatch 1) probe forwarding inside the fused chains. Fusion is
// purely an execution strategy; it must be completely invisible in the
// output.
func TestFusionMatchesMaterialized(t *testing.T) {
	runSuite(t, testDataset(t), suite{
		shapes: bothShapes,
		ref:    core.Options{NoFuse: true},
		legs:   fusedLegs(),
	})
}

// fusedLegs is the matrix fused execution must be invisible across: serial
// and parallel, unbudgeted and spilling everything, batched (default) and
// scalar probe forwarding.
func fusedLegs() []runConfig {
	var legs []runConfig
	for _, rc := range []runConfig{
		{},
		{core.EnvConfig{Workers: 3}, core.Options{MorselsPerWorker: 3}},
		{env: core.EnvConfig{MemBudget: 1}},
		{core.EnvConfig{Workers: 3, MemBudget: 1}, core.Options{MorselsPerWorker: 3}},
	} {
		for _, probeBatch := range []int{0, 1} {
			rc.exec.ProbeBatch = probeBatch
			legs = append(legs, rc)
		}
	}
	return legs
}

// TestRangeStreamFusionMatchesMaterialized covers the Selection/Having
// fused-consumer kind on SSB data — a shape the canned SSB plans never
// produce, so it is built by hand: a rid-keyed selection (the
// decomposed-plan shape of flight 1) feeding a second selection with a
// rid-range predicate. The σ→σ edge fuses as an ordered range stream;
// results must be bit-identical to the materialized path across
// serial/parallel execution, a sub-peak memory budget, and batched vs
// scalar probe forwarding. The rid key is unique, so not even the
// intra-key duplicate order caveat applies.
func TestRangeStreamFusionMatchesMaterialized(t *testing.T) {
	ds := testDataset(t)
	ridBits := ds.Lineorder.Bits(catalog.RIDCol)
	nRows := uint64(ds.Lineorder.Rows())
	cols := []string{"lo_orderdate", "lo_extendedprice"}
	colExprs := []core.RowExpr{core.Attr(0, "lo_orderdate"), core.Attr(0, "lo_extendedprice")}
	mkPlan := func() *core.Plan {
		discIdx := ds.Lineorder.MustIndex([]string{"lo_discount"}, "lo_orderdate", "lo_extendedprice")
		inner := &core.Selection{
			Input: &core.Base{Table: discIdx},
			Pred:  core.Between(1, 3),
			Out: core.OutputSpec{
				Name:     "σ_discount",
				Key:      core.SimpleKey(catalog.RIDCol, ridBits),
				KeyRefs:  []core.Ref{{Input: 0, Attr: catalog.RIDCol}},
				Cols:     cols,
				ColExprs: colExprs,
			},
		}
		return &core.Plan{Root: &core.Selection{
			Input: inner,
			Pred:  core.Between(nRows/4, 3*nRows/4),
			Out: core.OutputSpec{
				Name:     "σ_band",
				Key:      core.SimpleKey(catalog.RIDCol, ridBits),
				KeyRefs:  []core.Ref{{Input: 0, Attr: catalog.RIDCol}},
				Cols:     cols,
				ColExprs: colExprs,
			},
		}}
	}
	ref, _, err := newTestEnv(t, core.EnvConfig{}).Run(context.Background(), mkPlan(), core.Options{NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	refRows := core.Extract(ref).Rows
	if len(refRows) == 0 {
		t.Fatal("empty reference result — the predicates select nothing")
	}
	for _, leg := range fusedLegs() {
		leg.exec.CollectStats = true
		out, stats, err := newTestEnv(t, leg.env).Run(context.Background(), mkPlan(), leg.exec)
		if err != nil {
			t.Fatalf("%+v: %v", leg, err)
		}
		if stats.FusedEdges != 1 {
			t.Fatalf("%+v: FusedEdges = %d, want 1 (σ→σ range stream)", leg, stats.FusedEdges)
		}
		if got := stats.Ops[0].FusedKind; got != "range-stream" {
			t.Fatalf("%+v: fused edge kind %q, want range-stream", leg, got)
		}
		if leg.exec.ProbeBatch == 0 && stats.Ops[0].ProbeBatches == 0 {
			t.Fatalf("%+v: batched forwarding recorded no probe batches", leg)
		}
		if !reflect.DeepEqual(core.Extract(out).Rows, refRows) {
			t.Fatalf("%+v: range-stream fused result differs", leg)
		}
	}
}

// TestFusionCoversDecomposedPlans: on the decomposed (plain) plan shape
// every SSB query carries at least one single-consumer selection→join
// edge, so the fused-edge counter must move on well over half the suite
// — the coverage the fusion ablation reports.
func TestFusionCoversDecomposedPlans(t *testing.T) {
	ds := testDataset(t)
	fusedQueries := 0
	for _, qid := range QueryIDs {
		_, stats, err := runQPPT(t, ds, qid, PlanOptions{}, runConfig{exec: core.Options{CollectStats: true}})
		if err != nil {
			t.Fatalf("Q%s: %v", qid, err)
		}
		if stats.FusedEdges > 0 {
			fusedQueries++
		}
	}
	if fusedQueries < 8 {
		t.Fatalf("only %d of %d decomposed queries fused any edge, want >= 8", fusedQueries, len(QueryIDs))
	}
}
