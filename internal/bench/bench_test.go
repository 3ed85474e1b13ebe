package bench

import (
	"testing"

	"qppt/internal/core"
	"qppt/internal/ssb"
)

// The harness tests run everything at toy sizes: they guard the plumbing
// (every figure function runs, returns the right rows, errors propagate),
// not the numbers.

// testEnv builds an Env that is closed when the test ends.
func testEnv(t *testing.T, cfg core.EnvConfig) *core.Env {
	t.Helper()
	env, err := core.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Close(); err != nil {
			t.Errorf("env.Close: %v", err)
		}
	})
	return env
}

func TestFigure3Harness(t *testing.T) {
	sizes := []int{20000}
	for _, rows := range [][]Fig3Row{Figure3a(sizes), Figure3b(sizes)} {
		if len(rows) != len(Fig3Structures) {
			t.Fatalf("%d rows, want %d", len(rows), len(Fig3Structures))
		}
		for _, r := range rows {
			if r.NsPerKey <= 0 {
				t.Errorf("%s: non-positive ns/key", r.Structure)
			}
			if r.Size != sizes[0] {
				t.Errorf("%s: size %d", r.Structure, r.Size)
			}
		}
	}
	if Figure3aOne("KISS", 10000) <= 0 || Figure3bOne("PT4", 10000) <= 0 {
		t.Error("one-cell helpers returned non-positive timings")
	}
}

func TestQueryFigureHarness(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.005, Seed: 3})
	env := testEnv(t, core.EnvConfig{})
	if err := WarmupQueries(ds, env); err != nil {
		t.Fatal(err)
	}
	f7, err := Figure7(ds, 1, env, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != 13*3 {
		t.Fatalf("figure 7 has %d rows, want 39", len(f7))
	}
	// Engines must agree on result cardinality per query.
	byQuery := map[string]int{}
	for _, r := range f7 {
		if prev, seen := byQuery[r.Query]; seen && prev != r.Rows {
			t.Errorf("Q%s: engines returned %d vs %d rows", r.Query, prev, r.Rows)
		}
		byQuery[r.Query] = r.Rows
	}
	f8, err := Figure8(ds, 1, env, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != 4 {
		t.Fatalf("figure 8 has %d rows", len(f8))
	}
	share, err := Figure8SelectionShare(ds, env)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0 || share > 1 {
		t.Fatalf("selection share = %f", share)
	}
	f9, err := Figure9(ds, 1, env, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f9) != 6 {
		t.Fatalf("figure 9 has %d rows", len(f9))
	}
	jb, err := AblationJoinBuffer(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jb) != 4 {
		t.Fatalf("joinbuffer ablation has %d rows", len(jb))
	}
	aw, err := AblationWorkers(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(aw) != 8 {
		t.Fatalf("workers ablation has %d rows", len(aw))
	}
	// Worker-pool size must never change a query result.
	awRows := map[string]int{}
	for _, r := range aw {
		if prev, seen := awRows[r.Query]; seen && prev != r.Rows {
			t.Errorf("Q%s: worker sweep returned %d vs %d rows", r.Query, prev, r.Rows)
		}
		awRows[r.Query] = r.Rows
	}
	// A parallel Figure 7 run must agree with the serial engines row for row.
	f7w, err := Figure7(ds, 1, testEnv(t, core.EnvConfig{Workers: 4}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f7w {
		if prev, seen := byQuery[r.Query]; seen && prev != r.Rows {
			t.Errorf("Q%s: workers=4 returned %d rows, serial %d", r.Query, r.Rows, prev)
		}
	}
}

func TestAblationHarness(t *testing.T) {
	if rows := AblationKPrime(5000); len(rows) != 6 {
		t.Fatalf("kprime rows = %d", len(rows))
	}
	comp := AblationKISSCompression(5000)
	if len(comp) != 4 {
		t.Fatalf("compression rows = %d", len(comp))
	}
	for _, r := range comp {
		if r.Dist == "dense" && r.Compress && r.RCUCopies == 0 {
			t.Error("dense compressed inserts reported no RCU copies")
		}
		if !r.Compress && r.RCUCopies != 0 {
			t.Error("uncompressed inserts reported RCU copies")
		}
	}
	if rows := AblationBatchSize(20000); len(rows) != 7 {
		t.Fatalf("batch rows = %d", len(rows))
	}
}

// The fusion ablation must produce one row per SSB query, every fused
// result bit-identical to the materialized one, and the fused-edge
// counter moving on well over half the decomposed suite.
func TestFusionAblationHarness(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.005, Seed: 7})
	if err := WarmupQueries(ds, testEnv(t, core.EnvConfig{})); err != nil {
		t.Fatal(err)
	}
	rows, err := AblationFusion(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("fusion ablation has %d rows, want 13", len(rows))
	}
	fused, streamed := 0, 0
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("Q%s: fused result not identical to materialized", r.Query)
		}
		if r.FusedMillis <= 0 || r.UnfusedMillis <= 0 {
			t.Errorf("Q%s: non-positive timing %+v", r.Query, r)
		}
		if r.FusedEdges > 0 {
			fused++
		}
		streamed += r.TuplesStreamed
	}
	if fused < 8 {
		t.Fatalf("only %d of 13 queries fused any edge, want >= 8", fused)
	}
	// A fused edge on an empty selection legitimately streams nothing
	// (tiny scale factors), but the suite as a whole must stream.
	if streamed == 0 {
		t.Fatal("no query streamed any combinations through a fused edge")
	}
}

// The memory-lifecycle ablation must produce one row per configuration
// with the recycler and restore-path counters actually moving where the
// configuration enables them.
func TestMemLifecycleHarness(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.005, Seed: 5})
	if err := WarmupQueries(ds, testEnv(t, core.EnvConfig{})); err != nil {
		t.Fatal(err)
	}
	rows, err := AblationMemLifecycle(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("memlife ablation has %d rows, want 3", len(rows))
	}
	byCfg := map[string]MemLifeRow{}
	for _, r := range rows {
		byCfg[r.Config] = r
	}
	if byCfg["recycle"].ChunksReused == 0 {
		t.Error("recycle config reused no chunks")
	}
	if byCfg["spill-all"].ThawBytesRead == 0 {
		t.Error("spill-all config read no thaw bytes")
	}
}
