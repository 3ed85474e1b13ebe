package ssb

import (
	"sync"
	"testing"

	"qppt/internal/core"
)

// The dataset is loaded once per test binary: the generator and base index
// builds dominate test time otherwise.
var (
	dsOnce sync.Once
	dsTest *Dataset
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsTest = MustLoad(GenConfig{SF: 0.02, Seed: 42})
	})
	return dsTest
}

func TestGeneratorShape(t *testing.T) {
	ds := testDataset(t)
	if got := ds.Date.Rows(); got != 2557 {
		t.Errorf("date rows = %d, want 2557 (7 years incl. two leap years)", got)
	}
	if ds.Lineorder.Rows() < 100000 {
		t.Errorf("lineorder rows = %d, want >= 100000 at SF 0.02", ds.Lineorder.Rows())
	}
	if ds.Customer.Rows() != 600 || ds.Supplier.Rows() != 40 {
		t.Errorf("customer/supplier rows = %d/%d, want 600/40", ds.Customer.Rows(), ds.Supplier.Rows())
	}
	// Every lineorder foreign key must resolve.
	cols := ds.Raw["lineorder"]
	nCust, nSupp, nPart := uint64(ds.Customer.Rows()), uint64(ds.Supplier.Rows()), uint64(ds.Part.Rows())
	for i, ck := range cols["lo_custkey"] {
		if ck < 1 || ck > nCust {
			t.Fatalf("row %d: custkey %d out of range", i, ck)
		}
		if sk := cols["lo_suppkey"][i]; sk < 1 || sk > nSupp {
			t.Fatalf("row %d: suppkey %d out of range", i, sk)
		}
		if pk := cols["lo_partkey"][i]; pk < 1 || pk > nPart {
			t.Fatalf("row %d: partkey %d out of range", i, pk)
		}
	}
	// Revenue must be consistent with price and discount.
	for i := range cols["lo_revenue"] {
		price, disc := cols["lo_extendedprice"][i], cols["lo_discount"][i]
		if cols["lo_revenue"][i] != price*(100-disc)/100 {
			t.Fatalf("row %d: inconsistent revenue", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(GenConfig{SF: 0.005, Seed: 7})
	b := Generate(GenConfig{SF: 0.005, Seed: 7})
	ca, cb := a.Tables["lineorder"], b.Tables["lineorder"]
	for i := range ca {
		for j := range ca[i].Ints {
			if ca[i].Ints[j] != cb[i].Ints[j] {
				t.Fatalf("column %s differs at row %d", ca[i].Name, j)
			}
		}
	}
}

// TestCrossEngineEquivalence is the repository's strongest correctness
// check: every SSB query must return the identical normalized result on
// the QPPT engine, the column-at-a-time engine, and the vector-at-a-time
// engine.
func TestCrossEngineEquivalence(t *testing.T) {
	ds := testDataset(t)
	for _, qid := range QueryIDs {
		qid := qid
		t.Run("Q"+qid, func(t *testing.T) {
			qppt, _, err := runQPPT(t, ds, qid, DefaultPlanOptions(), runConfig{})
			if err != nil {
				t.Fatalf("qppt: %v", err)
			}
			col, err := ds.RunColumn(qid)
			if err != nil {
				t.Fatalf("column: %v", err)
			}
			vec, err := ds.RunVector(qid)
			if err != nil {
				t.Fatalf("vector: %v", err)
			}
			if !qppt.Equal(col) {
				t.Errorf("QPPT and column engines disagree:\nqppt: %d rows %v\ncol:  %d rows %v",
					len(qppt.Rows), head(qppt.Rows), len(col.Rows), head(col.Rows))
			}
			if !qppt.Equal(vec) {
				t.Errorf("QPPT and vector engines disagree:\nqppt: %d rows %v\nvec:  %d rows %v",
					len(qppt.Rows), head(qppt.Rows), len(vec.Rows), head(vec.Rows))
			}
		})
	}
}

func head(rows [][]uint64) [][]uint64 {
	if len(rows) > 5 {
		return rows[:5]
	}
	return rows
}

// TestPlanKnobsPreserveResults: the demonstrator's optimizer knobs must
// never change a query's result — only its speed.
func TestPlanKnobsPreserveResults(t *testing.T) {
	ds := testDataset(t)
	for _, qid := range QueryIDs {
		ref, _, err := runQPPT(t, ds, qid, DefaultPlanOptions(), runConfig{})
		if err != nil {
			t.Fatalf("Q%s: %v", qid, err)
		}
		type variant struct {
			plan PlanOptions
			run  runConfig
		}
		variants := []variant{
			{plan: PlanOptions{UseSelectJoin: false}},
			{PlanOptions{UseSelectJoin: true}, runConfig{exec: core.Options{BufferSize: 1}}},
			{PlanOptions{UseSelectJoin: true}, runConfig{exec: core.Options{BufferSize: 64}}},
			{PlanOptions{UseSelectJoin: false}, runConfig{exec: core.Options{BufferSize: 2048}}},
			{PlanOptions{UseSelectJoin: true}, runConfig{env: core.EnvConfig{Workers: core.WorkersAuto}}},
			{PlanOptions{UseSelectJoin: true}, runConfig{env: core.EnvConfig{Workers: 4}}},
			{PlanOptions{UseSelectJoin: false}, runConfig{env: core.EnvConfig{Workers: 3}}},
		}
		if qid == "4.1" {
			for a := 2; a <= 5; a++ {
				variants = append(variants, variant{plan: PlanOptions{JoinArity: a}})
			}
		}
		if qid == "1.1" || qid == "1.2" || qid == "1.3" {
			// Section 4.1: decomposed per-predicate selections combined by
			// the intersect set operator must give the same answer.
			variants = append(variants, variant{plan: PlanOptions{DecomposeSelections: true}})
		}
		for vi, opt := range variants {
			got, _, err := runQPPT(t, ds, qid, opt.plan, opt.run)
			if err != nil {
				t.Fatalf("Q%s variant %d: %v", qid, vi, err)
			}
			if !ref.Equal(got) {
				t.Errorf("Q%s variant %d (%+v) changed the result: %d vs %d rows",
					qid, vi, opt, len(got.Rows), len(ref.Rows))
			}
		}
	}
}

func TestResultsNonTrivial(t *testing.T) {
	ds := testDataset(t)
	// With the fixed seed these queries must produce data; a zero result
	// would mean predicates or join paths are silently broken.
	for _, qid := range []string{"1.1", "1.2", "2.1", "3.1", "3.2", "4.1", "4.2"} {
		res, _, err := runQPPT(t, ds, qid, DefaultPlanOptions(), runConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("Q%s returned no rows", qid)
			continue
		}
		var total uint64
		for _, r := range res.Rows {
			total += r[len(r)-1]
		}
		if total == 0 {
			t.Errorf("Q%s aggregate total is 0", qid)
		}
	}
}

func TestStatsReportOperators(t *testing.T) {
	ds := testDataset(t)
	_, stats, err := runQPPT(t, ds, "2.3", PlanOptions{UseSelectJoin: true}, runConfig{exec: core.Options{CollectStats: true}})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || len(stats.Ops) < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// The plan of Figure 5 with select-join: σ_supplier, the composed
	// select-join, and the final join-group.
	if len(stats.Ops) != 3 {
		t.Errorf("Q2.3 w/ select-join has %d operators, want 3", len(stats.Ops))
	}
	for _, op := range stats.Ops {
		if op.Time < 0 {
			t.Errorf("operator %s has negative time", op.Label)
		}
	}
}

func TestDecodeRow(t *testing.T) {
	ds := testDataset(t)
	res, _, err := runQPPT(t, ds, "2.1", DefaultPlanOptions(), runConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Skip("no rows at this SF")
	}
	dec := ds.DecodeRow("2.1", res.Rows[0])
	if len(dec) != 3 {
		t.Fatalf("decoded = %v", dec)
	}
	if dec[1][:5] != "MFGR#" {
		t.Errorf("brand decoded as %q", dec[1])
	}
}
