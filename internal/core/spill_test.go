package core

import (
	"context"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"qppt/internal/arena/arenatest"
)

// A plan run under a memory budget must spill (and restore) intermediates
// yet produce bit-identical results, serially and with morsel
// parallelism; the stats must record the traffic.
func TestMemBudgetSpillsAndMatches(t *testing.T) {
	f := buildFixture(3)
	want, _, err := run(t, EnvConfig{}, starPlan(f, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes := Extract(want)
	for _, workers := range []int{1, 3} {
		out, stats, err := run(t, EnvConfig{
			MemBudget: 1, // far below any intermediate: everything cold spills
			Workers:   workers,
		}, starPlan(f, 2), Options{CollectStats: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(Extract(out).Rows, wantRes.Rows) {
			t.Fatalf("workers=%d: budgeted result differs", workers)
		}
		if stats.Spills == 0 || stats.Restores == 0 {
			t.Fatalf("workers=%d: no spill traffic recorded: %+v", workers, stats)
		}
		if stats.SpillBytes == 0 || stats.RestoreBytes == 0 || stats.RestoreBytesRead == 0 || stats.PeakResident == 0 {
			t.Fatalf("workers=%d: byte counters empty: %+v", workers, stats)
		}
		opSpills, opRestores := 0, 0
		for _, op := range stats.Ops {
			opSpills += op.Spills
			opRestores += op.Restores
		}
		if opSpills != stats.Spills || opRestores != stats.Restores {
			t.Fatalf("workers=%d: per-op spill counts %d/%d don't add up to plan totals %d/%d",
				workers, opSpills, opRestores, stats.Spills, stats.Restores)
		}
	}
}

// Under a budget below any index, an operator whose scan ran on several
// workers folds their partials into the first worker's output and gives
// the unbudgeted answer. The partials are the operator's own and never
// enter the spill manager.
func TestBudgetedParallelFold(t *testing.T) {
	const nKeys, groups = 100000, 8192
	idx := NewIndex(IndexConfig{KeyBits: 32, PayloadWidth: 1})
	for k := uint64(0); k < nKeys; k++ {
		idx.Insert(k, []uint64{k % groups})
	}
	in := NewIndexedTable("t", SimpleKey("k", 32), []string{"g"}, idx)
	sel := &Selection{
		Input: &Base{Table: in},
		Out: OutputSpec{
			Name:     "Γ_g",
			Key:      SimpleKey("g", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "g"}},
			Cols:     []string{"n"},
			ColExprs: []RowExpr{Computed(func([]uint64) uint64 { return 1 })},
			Fold:     FoldSum(0),
		},
	}
	want, _, err := run(t, EnvConfig{}, &Plan{Root: sel}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Whoever scans key 0 waits until another worker scans the upper half,
	// so at least two workers build partials however the pool is scheduled.
	// The wait is bounded: a pool that never starts a second worker fails
	// the Workers check below instead of hanging.
	kOff := CtxOffsets([]*IndexedTable{in}, Ref{Input: 0, Attr: "k"})[0]
	late := make(chan struct{})
	var once sync.Once
	sel.Out.ColExprs = []RowExpr{Computed(func(ctx []uint64) uint64 {
		switch k := ctx[kOff]; {
		case k == 0:
			select {
			case <-late:
			case <-time.After(10 * time.Second):
			}
		case k >= nKeys/2:
			once.Do(func() { close(late) })
		}
		return 1
	})}
	got, stats, err := run(t, EnvConfig{Workers: 3, MemBudget: 1}, &Plan{Root: sel}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Extract(got).Rows, Extract(want).Rows) {
		t.Fatal("budgeted parallel fold changed the result")
	}
	if op := stats.Ops[len(stats.Ops)-1]; op.Workers < 2 {
		t.Fatalf("the scan ran on %d worker: no partials to fold", op.Workers)
	}
}

// dimSel is one dimension selection of the liveness plans: every customer,
// re-keyed on custkey, carrying the region. Each call is an operator of its
// own, so a plan can take several.
func dimSel(f *fixture, name string) *Selection {
	return &Selection{
		Input: &Base{Table: f.custByKey},
		Pred:  Between(0, nCust-1),
		Out: OutputSpec{
			Name:     name,
			Key:      SimpleKey("custkey", 16),
			KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
			Cols:     []string{"region"},
			ColExprs: []RowExpr{Attr(0, "region")},
		},
	}
}

// dimPlan is sum(qty) by region for one brand as a single select-join fed
// by the given dimension inputs, each probed with the fact's custkey; the
// region comes from the first.
func dimPlan(f *fixture, brand uint64, dims ...Operator) *SelectJoin {
	sj := &SelectJoin{
		SelInput:      &Base{Table: f.prodByBrand},
		Pred:          Point(brand),
		Main:          &Base{Table: f.factByProd},
		ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
		Out: OutputSpec{
			Name:     "Γ_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 2, Attr: "region"}},
			Cols:     []string{"sum_qty"},
			ColExprs: []RowExpr{Attr(1, "qty")},
			Fold:     FoldSum(0),
		},
	}
	for _, d := range dims {
		sj.Assists = append(sj.Assists, Assist{Input: d, ProbeWith: "custkey"})
	}
	return sj
}

// sharedPlan joins two select-joins (brands brand and brand+1) that both
// probe the same dimension operator: an intermediate with two consumers.
func sharedPlan(f *fixture, brand uint64, shared Operator) *SelectJoin {
	return &SelectJoin{
		SelInput:      dimPlan(f, brand, shared),
		Main:          dimPlan(f, brand+1, shared),
		ProbeMainWith: Ref{Input: 0, Attr: "region"},
		Out: OutputSpec{
			Name:     "⋈_region",
			Key:      SimpleKey("region", 8),
			KeyRefs:  []Ref{{Input: 0, Attr: "region"}},
			Cols:     []string{"a", "b"},
			ColExprs: []RowExpr{Attr(0, "sum_qty"), Attr(1, "sum_qty")},
		},
	}
}

// TestSharedInputUnpinnedAfterEachConsumer: finishOp unpins an operator's
// inputs once it has run. Under a one-byte budget the intermediate both
// select-joins read is frozen again after its first consumer, so the second
// consumer's pin restores it a second time. An input left pinned would stay
// resident through the second consumer and be restored only once.
func TestSharedInputUnpinnedAfterEachConsumer(t *testing.T) {
	f := buildFixture(31)
	shared := dimSel(f, "σ_shared")
	pl := &Plan{Root: sharedPlan(f, 4, shared)}
	want, _, err := run(t, EnvConfig{}, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := run(t, EnvConfig{MemBudget: 1}, pl, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Extract(got).Rows, Extract(want).Rows) {
		t.Fatal("budgeted result differs")
	}
	i := slices.IndexFunc(stats.Ops, func(op OperatorStats) bool { return op.Label == shared.Label() })
	if i < 0 {
		t.Fatalf("no operator row for %s:\n%s", shared.Label(), stats)
	}
	if r := stats.Ops[i].Restores; r < 2 {
		t.Fatalf("%s restored ×%d, want ≥ 2 (once per consumer):\n%s", shared.Label(), r, stats)
	}
}

// TestSpillLiveness pins the executor's eviction rule by counts, under a
// budget that holds one intermediate but not two: an input leaves the
// budget when its last consumer has run, before the operator's output
// enters it, and the plan result never enters it — so a plan with at most
// one intermediate does no I/O at all, and one with N dimension selections
// writes and reads back at most N−1 of them. An intermediate with a second
// consumer outlives the first.
func TestSpillLiveness(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	f := buildFixture(31)
	const brand = 4
	base := &Base{Table: f.custByKey}
	shared := dimSel(f, "σ_shared")
	plans := []struct {
		name string
		dims int // -1: not a star
		root Operator
	}{
		{"0 dimensions", 0, dimPlan(f, brand, base)},
		{"1 dimension", 1, dimPlan(f, brand, dimSel(f, "σ_1"))},
		{"2 dimensions", 2, dimPlan(f, brand, dimSel(f, "σ_1"), dimSel(f, "σ_2"))},
		{"3 dimensions", 3, dimPlan(f, brand, dimSel(f, "σ_1"), dimSel(f, "σ_2"), dimSel(f, "σ_3"))},
		// σ_shared feeds both select-joins; dropping it when the first has
		// run would fail the second's pin.
		{"2 consumers", -1, sharedPlan(f, brand, shared)},
	}
	// One intermediate's tracked size, to put the budget between one and two.
	_, st, err := run(t, EnvConfig{}, &Plan{Root: plans[1].root}, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(st.Ops[0].OutBytes) * 3 / 2
	for _, workers := range []int{1, 2} {
		for _, tc := range plans {
			pl := &Plan{Root: tc.root}
			want, _, err := run(t, EnvConfig{}, pl, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			env := newTestEnv(t, EnvConfig{Workers: workers, MemBudget: budget, SpillDir: dir})
			var pooled int64
			for round := 0; round < 2; round++ {
				out, stats, err := env.Run(context.Background(), pl, Options{CollectStats: true})
				if err != nil {
					t.Fatalf("workers=%d, %s: %v", workers, tc.name, err)
				}
				if !reflect.DeepEqual(Extract(out).Rows, Extract(want).Rows) {
					t.Fatalf("workers=%d, %s: budgeted result differs", workers, tc.name)
				}
				// No leaks: nothing tracked, no file, and (serially, where
				// the peak of live chunks repeats) the pool as full after
				// the second run as after the first.
				if left, _ := os.ReadDir(dir); len(left) != 0 || env.SpillStats().Resident != 0 {
					t.Errorf("workers=%d, %s: %d spill files and %d tracked bytes outlive the plan",
						workers, tc.name, len(left), env.SpillStats().Resident)
				}
				out.Release()
				now := env.RecyclerStats().PooledBytes
				if round == 1 && workers == 1 && now != pooled {
					t.Errorf("%s: pool holds %d B after the second run, %d B after the first", tc.name, now, pooled)
				}
				pooled = now
				if workers > 1 {
					continue // concurrent branches: the counts depend on the schedule
				}
				root := stats.Ops[len(stats.Ops)-1]
				if root.Spills != 0 || root.Restores != 0 {
					t.Errorf("%s: the plan result was spilled ×%d, restored ×%d", tc.name, root.Spills, root.Restores)
				}
				switch {
				case tc.dims < 0:
				case tc.dims <= 1:
					if stats.Spills != 0 || stats.Restores != 0 {
						t.Errorf("%s: %d spills, %d restores; want no I/O", tc.name, stats.Spills, stats.Restores)
					}
				case stats.Spills == 0 || stats.Spills > tc.dims-1 || stats.Restores > tc.dims-1:
					t.Errorf("%s: %d spills, %d restores; want 1 to %d and at most %d",
						tc.name, stats.Spills, stats.Restores, tc.dims-1, tc.dims-1)
				}
			}
		}
	}
}
