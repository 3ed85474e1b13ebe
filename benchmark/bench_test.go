package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"qppt/internal/ssb"
)

// testEnv is a small, fast configuration: SF 0.01.
func testEnv(t *testing.T) runEnv {
	return runEnv{sf: 0.01, seed: 1, nproc: runtime.GOMAXPROCS(0), out: t.TempDir()}
}

// atTestScale lifts the two premises that depend on the scale factor: at
// SF 0.01 a month has about 700 (customer, day) groups, not 10 000, and
// there are 300 customers, too few for the partition-wise merge.
func atTestScale(w workload) workload {
	w.minRows, w.mergeRows = 0, 0
	return w
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v, %v, want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "wire.roundtrip", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 2, Name: "wire.server_run", StartNs: 20, EndNs: 50},
		{ID: 4, Parent: 1, Name: "replay", StartNs: 55, EndNs: 95},
		// Two overlapping children, the second running past its parent.
		{ID: 5, Parent: 4, Name: "core.op a", StartNs: 60, EndNs: 80},
		{ID: 6, Parent: 4, Name: "core.op b", StartNs: 70, EndNs: 120},
	}
	want := []int64{20, 10, 30, 5, 20, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i+1, spans[i].Name, got[i], want[i])
		}
	}
	rows := map[string]layerRow{}
	share := 0.0
	for _, r := range layerTable(spans) {
		rows[r.Layer] = r
		share += r.Share
	}
	// The request's 20 ns and the replay's 5 ns are nobody's: unattributed.
	if u := rows[unattributed]; u.Spans != 2 || u.SelfMs != 25e-6 || u.Share != 0.25 {
		t.Errorf("unattributed row = %+v, want 2 spans, 25 ns, share 0.25", u)
	}
	if c := rows["core.op"]; c.Spans != 2 {
		t.Errorf("core.op row = %+v, want the two operator spans in one row", c)
	}
	// A span's own self time is never clipped: the 10 ns the two operators
	// overlap and the 25 ns "core.op b" runs past its parent are counted
	// here, which is why tracer.add lays measured-elsewhere spans end to end
	// and clips them, and real traces sum to 1.
	if math.Abs(share-1.35) > 1e-9 {
		t.Errorf("shares sum to %v, want 1.35", share)
	}
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	ds, err := ssb.Load(ssb.GenConfig{SF: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		hash := func(seed int64) string {
			return w.requests(ds, rand.New(rand.NewSource(seed)), w.clients).hash()
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave request lists %s and %s", w.name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same request lists %s", w.name, a)
		}
	}
	// point-plan's premise: no text is ever sent twice.
	r := pointRequests(ds, rand.New(rand.NewSource(1)), 2)
	seen := map[int]bool{}
	for _, list := range append([][]int{r.warm, r.traced}, r.walk...) {
		for _, i := range list {
			if seen[i] {
				t.Fatalf("point-plan: text %d is dealt out twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != r.n {
		t.Errorf("point-plan: %d of %d texts dealt out", len(seen), r.n)
	}
}

// BENCHMARK.json at the root of the repository declares what this package
// measures; the two must not drift apart. main runs the same check.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	if err := checkDeclaration(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Error(err)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// A workload whose operators do not do what its name says fails its guard,
// whatever the engine was configured to do.
func TestGuardsLookAtWhatRan(t *testing.T) {
	par, _ := findWorkload("ssb-par")
	ok := premises{hits: 100, pool: 2, fan: fanOut{workers: 2, parOps: 9, mergeRows: 5000}}
	if bad := par.guard(ok, 2); len(bad) != 0 {
		t.Errorf("ssb-par with operators on 2 workers and a 5000-row merge: %v", bad)
	}
	for name, p := range map[string]premises{
		"one worker per operator": {hits: 100, pool: 2, fan: fanOut{workers: 1}},
		"small merges only":       {hits: 100, pool: 2, fan: fanOut{workers: 2, parOps: 9, mergeRows: 400}},
		"froze an index":          {hits: 100, pool: 2, fan: ok.fan, freezes: 1},
		"cache misses":            {hits: 1, misses: 1, pool: 2, fan: ok.fan},
		"queued at the gate":      {hits: 100, pool: 2, fan: ok.fan, waited: 1},
	} {
		if bad := par.guard(p, 2); len(bad) != 1 {
			t.Errorf("ssb-par, %s: guard said %v, want one failure", name, bad)
		}
	}
	if bad := par.guard(ok, 1); len(bad) != 1 {
		t.Errorf("ssb-par on one CPU: guard said %v, want one failure", bad)
	}
	exec, _ := findWorkload("ssb-exec")
	if bad := exec.guard(premises{hits: 100, pool: 1, fan: fanOut{workers: 2, parOps: 1}}, 2); len(bad) != 1 {
		t.Errorf("ssb-exec with an operator on 2 workers: guard said %v, want one failure", bad)
	}
	spill, _ := findWorkload("ssb-spill")
	if bad := spill.guard(premises{hits: 100, pool: 1}, 2); len(bad) != 1 {
		t.Errorf("ssb-spill that froze nothing: guard said %v, want one failure", bad)
	}
	bulk, _ := findWorkload("bulk-result")
	if bad := bulk.guard(premises{hits: 100, pool: 1, answers: 10, rows: 5000}, 2); len(bad) != 1 {
		t.Errorf("bulk-result with 500 rows per answer: guard said %v, want one failure", bad)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// rec writes one record per value: one invocation each, as -compare is fed.
	rec := func(failed int, qps ...float64) []string {
		var paths []string
		for i, v := range qps {
			r := record{Schema: 1, Runs: []*result{{Workload: "ssb-exec", Attempted: 1000, Failed: failed,
				Metrics: map[string]metric{"qps": {Value: v, Unit: "queries/s"}}}}}
			buf, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), fmt.Sprintf("record-%d.json", i))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		return paths
	}
	for _, c := range []struct {
		a, b    []string
		verdict string
		worse   bool
	}{
		{rec(0, 100), rec(0, 101), "within bound", false},
		{rec(0, 100), rec(0, 50), "WORSE", true},
		{rec(0, 100), rec(0, 200), "better", false},
		{rec(0, 100, 101, 99, 100), rec(0, 50, 200, 100, 20), "unresolved", false},
		{rec(0, 100, 101, 99, 100), rec(0, 50, 51, 49, 50), "WORSE", true},
		// One more failed request is worse, however good the numbers.
		{rec(1, 100), rec(2, 200), "WORSE", true},
		{rec(2, 100), rec(1, 100), "within bound", false},
	} {
		var out bytes.Buffer
		worse, err := compareRecords(&out, c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("compare %v with %v: worse=%v, want %v and verdict %q in\n%s", c.a, c.b, worse, c.worse, c.verdict, out.String())
		}
	}
}

// Every workload runs end to end and yields every end-to-end metric, with no
// failed request and all premise guards passing.
func TestTimedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timed windows take a few seconds")
	}
	env := testEnv(t)
	for _, w := range workloads {
		res, err := runTimed(atTestScale(w), env, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v, want a positive finite value in %s", w.name, d.Name, m, d.Unit)
			}
		}
	}
}

// The counts of a traced run repeat exactly for a seed, every per-layer
// metric is there, and the trace file is written.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{
		"spill.freezes", "spill.thaws", "spill.bytes_out_per_query", "spill.bytes_in_per_query",
		"stmtcache.hit_ratio", "core.fused_edges", "core.tuples_streamed",
		"tree.kernel_descents", "tree.scalar_descents", "wire.bytes_per_query",
	}
	env := testEnv(t)
	for _, w := range workloads {
		a, err := runTraced(atTestScale(w), env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := runTraced(atTestScale(w), env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !a.Correct || a.Failed != 0 {
			t.Errorf("%s: %d of %d traced answers wrong", w.name, a.Failed, a.Attempted)
		}
		for _, d := range tracedLayer {
			if m, ok := a.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want a value in %s", w.name, d.Name, m, d.Unit)
			}
		}
		for _, name := range counts {
			if w.par && strings.HasSuffix(name, "_descents") {
				// Work stealing decides which worker claims which morsel, and
				// with it how many probe batches there are and where they end.
				continue
			}
			if av, bv := a.Metrics[name].Value, b.Metrics[name].Value; av != bv {
				t.Errorf("%s: %s = %v, then %v: the count does not repeat", w.name, name, av, bv)
			}
		}
		if a.RequestHash != b.RequestHash {
			t.Errorf("%s: request lists %s and %s differ for one seed", w.name, a.RequestHash, b.RequestHash)
		}
		share := 0.0
		for _, l := range a.Layers {
			share += l.Share
		}
		if math.Abs(share-1) > 0.01 {
			t.Errorf("%s: layer shares sum to %v, want 1", w.name, share)
		}
		if fi, err := os.Stat(filepath.Join(env.out, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: trace file missing or empty: %v", w.name, err)
		}
	}
}

// The stand-alone probes yield every probe metric, each a positive time or
// rate.
func TestProbes(t *testing.T) {
	probes, err := runProbes(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range probeLayer {
		if m, ok := probes[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("probe %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
}
