package ssb

import (
	"context"
	"slices"
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

// The three-engine test runs on a dataset of its own, large enough that
// every SSB text's answer is non-empty.
var (
	crossOnce sync.Once
	crossDS   *Dataset
)

// crossDigests pin each SSB text's answer at SF 0.1, seed 42: its row count
// and the wrapping sum of all its cells, computed by per-query plans
// written without the SQL parser. The three engines share that parser, so
// the pins are what catch a defect in it.
var crossDigests = map[string]struct {
	rows int
	sum  uint64
}{
	"1.1": {1, 420298198}, "1.2": {1, 97222299}, "1.3": {1, 28150167},
	"2.1": {280, 208014834}, "2.2": {56, 25704350}, "2.3": {7, 5801234},
	"3.1": {150, 599966370}, "3.2": {296, 27946566}, "3.3": {22, 1877380}, "3.4": {1, 72395},
	"4.1": {35, 152003155}, "4.2": {100, 42968571}, "4.3": {1308, 22848780},
}

// TestCrossEngineEquivalence is the repository's strongest correctness
// check: every SSB text must return the identical non-empty result on the
// QPPT engine (lexer, parser, planner and executor), the column-at-a-time
// engine and the vector-at-a-time engine, and that result must match its
// pinned digest.
func TestCrossEngineEquivalence(t *testing.T) {
	crossOnce.Do(func() { crossDS = MustLoad(GenConfig{SF: 0.1, Seed: 42}) })
	ds := crossDS
	for _, qid := range QueryIDs {
		t.Run("Q"+qid, func(t *testing.T) {
			qppt := runSQL(t, ds, qid)
			col, err := ds.RunColumn(qid)
			if err != nil {
				t.Fatalf("column: %v", err)
			}
			vec, err := ds.RunVector(qid)
			if err != nil {
				t.Fatalf("vector: %v", err)
			}
			if len(qppt.Rows) == 0 {
				t.Fatal("empty answer: the engines would agree on nothing")
			}
			if !qppt.Equal(col) {
				t.Errorf("QPPT and column engines disagree:\nqppt: %d rows %v %v\ncol:  %d rows %v %v",
					len(qppt.Rows), qppt.Attrs, head(qppt.Rows), len(col.Rows), col.Attrs, head(col.Rows))
			}
			if !qppt.Equal(vec) {
				t.Errorf("QPPT and vector engines disagree:\nqppt: %d rows %v %v\nvec:  %d rows %v %v",
					len(qppt.Rows), qppt.Attrs, head(qppt.Rows), len(vec.Rows), vec.Attrs, head(vec.Rows))
			}
			var sum uint64
			for _, r := range qppt.Rows {
				for _, v := range r {
					sum += v
				}
			}
			if want := crossDigests[qid]; len(qppt.Rows) != want.rows || sum != want.sum {
				t.Errorf("digest {%d, %d}, want {%d, %d}", len(qppt.Rows), sum, want.rows, want.sum)
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

// TestPlanKnobsPreserveResults: the demonstrator's joinbuffer size
// (Appendix A) must never change a query's result — only its speed. Size 1
// disables batching.
func TestPlanKnobsPreserveResults(t *testing.T) {
	ds := testDataset(t)
	runSuite(t, suite{
		cases: allCases(t, ds),
		legs: []runConfig{
			{exec: core.Options{BufferSize: 1}},
			{exec: core.Options{BufferSize: 64}},
			{exec: core.Options{BufferSize: 2048}},
		},
	})
}

// TestStatsReportOperators: the stats name the plan shapes. The planner's
// Q2.3 is the paper's Figure 5 star: the supplier selection materializes,
// and one composed select-join probes the part selection's qualifying
// keys into lineorder-by-partkey, with the supplier selection and the date
// index as assists. Figure 9's uncapped point is one 5-way star join over
// lineorder and the customer selection.
func TestStatsReportOperators(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct {
		c    planCase
		want []string
	}{
		{sqlCase(t, ds, "Q2.3", "2.3", SQLTexts["2.3"]), []string{"σ→σ_supplier", "σ⋈4→Γ"}},
		{planOf("fig9/5-way", "4.1", ds.Figure9Plan(5)), []string{"σ→σ_customer", "σ→σ_supplier", "σ→σ_part", "⋈5→Γ_year_nation"}},
	} {
		_, stats, err := tc.c.run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{CollectStats: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.c.name, err)
		}
		var labels []string
		for _, op := range stats.Ops {
			labels = append(labels, op.Label)
			if op.Time < 0 {
				t.Errorf("operator %s has negative time", op.Label)
			}
		}
		if !slices.Equal(labels, tc.want) {
			t.Errorf("%s ran %q, want %q", tc.c.name, labels, tc.want)
		}
	}
}
