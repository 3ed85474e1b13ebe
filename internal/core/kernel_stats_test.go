package core

import (
	"reflect"
	"strings"
	"testing"

	"qppt/internal/kernel"
)

// TestRangeStreamConsumerBatchStats pins the attribution fix for fused
// range-stream links: before it, only probing consumers surfaced any
// batch traffic — a Selection/Having chain top reported neither
// ProbeBatches nor a fill, making range-stream fusion look batchless
// next to probe fusion. Now the producer reports the batches it flushed
// (split sorted vs arrival) and the non-probing top reports the batches
// it received plus the combinations that survived the stream predicate.
func TestRangeStreamConsumerBatchStats(t *testing.T) {
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
	// A gapped range union: the envelope clip narrows the bottom scan to
	// the hull [2, 9], but brands 4..7 still stream and must be dropped
	// by the batch filter — so the kept count observably thins.
	mkPlan := func() *Plan {
		inner := &Selection{Input: &Base{Table: f.prodByBrand}, Out: outSpec("ident")}
		return &Plan{Root: &Selection{Input: inner, Pred: KeyPred{{Lo: 2, Hi: 3}, {Lo: 8, Hi: 9}}, Out: outSpec("band")}}
	}
	for _, rc := range []runConfig{
		{opts: Options{ProbeBatch: 16}},
		{EnvConfig{Workers: 3}, Options{ProbeBatch: 16, MorselsPerWorker: 3}},
	} {
		rc.opts.CollectStats = true
		out, stats, err := run(t, rc.env, mkPlan(), rc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", rc, err)
		}
		producer, top := stats.Ops[0], stats.Ops[1]
		if producer.FusedKind != "range-stream" {
			t.Fatalf("%+v: producer kind %q, want range-stream", rc, producer.FusedKind)
		}
		if producer.ProbeBatches == 0 || producer.AvgBatchFill <= 0 {
			t.Fatalf("%+v: producer batches=%d fill=%.1f, want both > 0", rc, producer.ProbeBatches, producer.AvgBatchFill)
		}
		if got := producer.SortedFlushes + producer.ArrivalFlushes; got != producer.ProbeBatches {
			t.Fatalf("%+v: flush split %d+%d != %d batches", rc, producer.SortedFlushes, producer.ArrivalFlushes, producer.ProbeBatches)
		}
		// The fix under test: the non-probing chain top reports the batch
		// traffic it received, not zeros.
		if top.ProbeBatches == 0 || top.AvgBatchFill <= 0 {
			t.Fatalf("%+v: range-stream top batches=%d fill=%.1f, want both > 0", rc, top.ProbeBatches, top.AvgBatchFill)
		}
		// A batch whose every key the filter drops is flushed by the
		// producer but never handed over, so the top can receive fewer
		// batches than the producer flushed — never more.
		if top.ProbeBatches > producer.ProbeBatches {
			t.Fatalf("%+v: top received %d batches, producer flushed only %d", rc, top.ProbeBatches, producer.ProbeBatches)
		}
		// No residual and no fold in this plan, so the combinations that
		// survive the batch predicate filter are exactly the output rows.
		if top.StreamedIn != out.Rows() {
			t.Fatalf("%+v: top StreamedIn=%d, output has %d rows", rc, top.StreamedIn, out.Rows())
		}
		if top.StreamedIn >= producer.TuplesStreamed {
			t.Fatalf("%+v: filter kept %d of %d streamed — predicate did not thin the stream", rc, top.StreamedIn, producer.TuplesStreamed)
		}
		if s := stats.String(); !strings.Contains(s, "stream batches in") {
			t.Fatalf("%+v: stats string misses the consumer batch line:\n%s", rc, s)
		}
	}
}

// TestForwardFilterMatchesPredMatch runs the same multi-range σ→σ chain
// through the three predicate paths — batched selection-vector filter
// (default), scalar predMatch wrapping (ProbeBatch 1), and materialized
// key-range scan (NoFuse) — and requires bit-identical results. The
// multi-range predicate exercises mask accumulation across ranges; the
// payload column checks row compaction alongside the keys.
func TestForwardFilterMatchesPredMatch(t *testing.T) {
	f := buildFixture(19)
	outSpec := func(name string) OutputSpec {
		return OutputSpec{
			Name:     name,
			Key:      SimpleKey("brand", 8),
			KeyRefs:  []Ref{{Input: 0, Attr: "brand"}},
			Cols:     []string{"prodkey"},
			ColExprs: []RowExpr{Attr(0, "prodkey")},
		}
	}
	preds := []KeyPred{
		Between(2, 5),
		{{Lo: 1, Hi: 3}, {Lo: 9, Hi: 14}, {Lo: 20, Hi: 20}}, // multi-range union
		{{Lo: 200, Hi: 255}}, // disjoint from every brand: empty result
		{},                   // empty predicate: matches nothing
		nil,                  // no predicate: passes everything
	}
	for pi, pred := range preds {
		mkPlan := func() *Plan {
			inner := &Selection{Input: &Base{Table: f.prodByBrand}, Out: outSpec("ident")}
			return &Plan{Root: &Selection{Input: inner, Pred: pred, Out: outSpec("band")}}
		}
		want, _, err := run(t, EnvConfig{}, mkPlan(), Options{NoFuse: true})
		if err != nil {
			t.Fatal(err)
		}
		wantRows := Extract(want).Rows
		for _, rc := range []runConfig{
			{},
			{opts: Options{ProbeBatch: 7}}, // partial final batches, mask tail words
			{opts: Options{ProbeBatch: 1}}, // scalar predMatch path
			{EnvConfig{Workers: 3}, Options{MorselsPerWorker: 3}},
		} {
			out, _, err := run(t, rc.env, mkPlan(), rc.opts)
			if err != nil {
				t.Fatalf("pred %d %+v: %v", pi, rc, err)
			}
			if !reflect.DeepEqual(Extract(out).Rows, wantRows) {
				t.Fatalf("pred %d %+v: fused result differs from materialized", pi, rc)
			}
		}
	}
}

// TestKernelDescentStatsSplit checks the kernel/scalar descent counters:
// a probe-heavy plan under the default dispatch reports SWAR descents,
// the same plan under ForceGeneric reports only scalar ones, and the
// plan-level stats line surfaces the split.
func TestKernelDescentStatsSplit(t *testing.T) {
	if !kernel.Enabled() {
		t.Skip("kernels disabled in this configuration")
	}
	f := buildFixture(20)
	run := func() *PlanStats {
		_, stats, err := run(t, EnvConfig{}, starPlan(f, 2), Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	kd, sd := run().descents()
	if kd == 0 {
		t.Fatalf("kernel descents = 0 (scalar %d), want > 0 under active dispatch", sd)
	}
	if s := run().String(); !strings.Contains(s, "SWAR descents") {
		t.Fatalf("stats string misses the kernel line:\n%s", s)
	}
	restore := kernel.ForceGeneric()
	kd, sd = run().descents()
	restore()
	if kd != 0 || sd == 0 {
		t.Fatalf("under ForceGeneric: kernel=%d scalar=%d, want 0 and > 0", kd, sd)
	}
}
