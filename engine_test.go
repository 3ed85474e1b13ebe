package qppt_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qppt"
	"qppt/internal/ssb"
)

var (
	engDSOnce sync.Once
	engDS     *ssb.Dataset
)

func engineDataset(t testing.TB) *ssb.Dataset {
	t.Helper()
	engDSOnce.Do(func() {
		engDS = ssb.MustLoad(ssb.GenConfig{SF: 0.02, Seed: 42})
	})
	return engDS
}

// oneShotResults runs every SSB query on its own fresh Engine — the
// historical one-shot mode, with a chunk pool nothing has used before —
// as the reference the engine paths must reproduce bit-identically.
func oneShotResults(t *testing.T, ds *ssb.Dataset) map[string][][]uint64 {
	t.Helper()
	ref := make(map[string][][]uint64, len(ssb.QueryIDs))
	for _, qid := range ssb.QueryIDs {
		eng, err := qppt.New(qppt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := eng.Session(ds.Cat).Query(context.Background(), ssb.SQLTexts[qid])
		eng.Close()
		if err != nil {
			t.Fatalf("Q%s one-shot: %v", qid, err)
		}
		ref[qid] = rows.Rows
	}
	return ref
}

// TestEngineMatchesOneShot: the full suite through one engine session
// must reproduce the one-shot results bit-identically across the engine
// configuration matrix — serial and parallel, with and without a memory
// budget — and the second pass of each engine must show cross-plan chunk
// reuse in the engine stats.
func TestEngineMatchesOneShot(t *testing.T) {
	ds := engineDataset(t)
	ref := oneShotResults(t, ds)

	configs := []struct {
		name string
		cfg  qppt.Config
	}{
		{"serial", qppt.Config{}},
		{"serial+budget", qppt.Config{MemBudget: 1 << 20}},
		{"parallel", qppt.Config{Workers: 4}},
		{"parallel+budget", qppt.Config{Workers: 4, MemBudget: 1 << 20}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := qppt.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			sess := eng.Session(ds.Cat)
			for pass := 0; pass < 2; pass++ {
				for _, qid := range ssb.QueryIDs {
					rows, _, err := sess.Query(context.Background(), ssb.SQLTexts[qid])
					if err != nil {
						t.Fatalf("pass %d Q%s: %v", pass, qid, err)
					}
					if !reflect.DeepEqual(rows.Rows, ref[qid]) {
						t.Errorf("pass %d Q%s: engine result differs (%d vs %d rows)",
							pass, qid, len(rows.Rows), len(ref[qid]))
					}
				}
			}
			st := eng.Stats()
			if st.Queries != 2*int64(len(ssb.QueryIDs)) {
				t.Errorf("engine counted %d queries, want %d", st.Queries, 2*len(ssb.QueryIDs))
			}
			if st.Recycler.Reused == 0 {
				t.Errorf("engine ran the suite twice with no cross-plan chunk reuse: %+v", st.Recycler)
			}
			if tc.cfg.MemBudget > 0 && st.Spill.Spills == 0 {
				t.Errorf("budgeted engine never spilled: %+v", st.Spill)
			}
		})
	}
}

// TestEngineConcurrentSessions: N goroutines hammer one engine — shared
// worker pool, shared recycler, shared spill budget — and every result
// must stay bit-identical to the serial one-shot reference. Run under
// -race (CI does), this is the concurrency proof of the session-scoped
// resource sharing.
func TestEngineConcurrentSessions(t *testing.T) {
	ds := engineDataset(t)
	ref := oneShotResults(t, ds)

	spillDir := t.TempDir()
	eng, err := qppt.New(qppt.Config{
		Workers:   4,
		MemBudget: 1 << 20, // force spilling under concurrency too
		SpillDir:  spillDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := eng.Session(ds.Cat)
			for i, qid := range ssb.QueryIDs {
				// Stagger the starting point so the clients overlap on
				// different queries.
				qid = ssb.QueryIDs[(i+c)%len(ssb.QueryIDs)]
				rows, _, err := sess.Query(context.Background(), ssb.SQLTexts[qid])
				if err != nil {
					errs[c] = fmt.Errorf("client %d Q%s: %w", c, qid, err)
					return
				}
				if !reflect.DeepEqual(rows.Rows, ref[qid]) {
					errs[c] = fmt.Errorf("client %d Q%s: result differs (%d vs %d rows)",
						c, qid, len(rows.Rows), len(ref[qid]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Recycler.Reused == 0 {
		t.Errorf("concurrent suite showed no cross-plan chunk reuse: %+v", st.Recycler)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	assertNoSpillFiles(t, spillDir)
	assertNoLeakedGoroutines(t)
}

// TestEngineConcurrentFirstTouch: concurrent queries against a *fresh*
// catalog race to build the base indexes their plans need — the serve
// mode's exact situation (one shared Session, cold caches). The catalog's
// index cache must serialize the builds; under -race this guards the
// planner→BuildIndex path.
func TestEngineConcurrentFirstTouch(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.005, Seed: 99}) // private cold catalog
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess := eng.Session(ds.Cat) // one session shared by every client
	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ssb.QueryIDs {
				qid := ssb.QueryIDs[(i+c)%len(ssb.QueryIDs)]
				if _, _, err := sess.Query(context.Background(), ssb.SQLTexts[qid]); err != nil {
					errs[c] = fmt.Errorf("client %d Q%s: %w", c, qid, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineCancellation: a query cancelled mid-run must return
// context.Canceled, leave no spill files behind, and leave the engine
// healthy for the next query.
func TestEngineCancellation(t *testing.T) {
	ds := engineDataset(t)
	spillDir := t.TempDir()
	eng, err := qppt.New(qppt.Config{Workers: 2, MemBudget: 1 << 20, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.Session(ds.Cat)

	// Pre-cancelled context: must fail immediately with ctx.Err().
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.Query(pre, ssb.SQLTexts["4.1"]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query returned %v, want context.Canceled", err)
	}

	// Mid-run cancellation: sweep cancel delays so at least some land
	// while the plan is executing; whatever the timing, the only allowed
	// outcomes are a clean result or context.DeadlineExceeded.
	sawCancel := false
	for _, delay := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		_, _, err := sess.Query(ctx, ssb.SQLTexts["4.1"])
		cancel()
		switch {
		case err == nil:
			// Finished before the deadline — fine.
		case errors.Is(err, context.DeadlineExceeded):
			sawCancel = true
		default:
			t.Fatalf("cancelled query (delay %v) returned %v, want nil or context.DeadlineExceeded", delay, err)
		}
	}
	if !sawCancel {
		t.Log("no cancellation landed mid-run (fast machine or tiny dataset); covered by the pre-cancelled case")
	}

	// The engine must still answer correctly after cancellations.
	if _, _, err := sess.Query(context.Background(), ssb.SQLTexts["1.1"]); err != nil {
		t.Fatalf("query after cancellations: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	assertNoSpillFiles(t, spillDir)
	assertNoLeakedGoroutines(t)
}

// TestEngineCloseDrainsInFlight: Close must wait for queries that
// already began — tearing down the shared spill state under a running
// plan would fail it with I/O errors. The only legal outcomes for the
// racing query are success (it began first) or ErrEngineClosed (Close won).
func TestEngineCloseDrainsInFlight(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.Session(ds.Cat)
	stmt, err := sess.Prepare(context.Background(), ssb.SQLTexts["4.1"])
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := stmt.Run(context.Background())
		done <- err
	}()
	time.Sleep(200 * time.Microsecond) // land Close mid-run when possible
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-done; err != nil && !errors.Is(err, qppt.ErrEngineClosed) {
		t.Fatalf("in-flight query failed during Close: %v", err)
	}
}

// TestEngineClosedRejectsQueries: use after Close fails cleanly.
func TestEngineClosedRejectsQueries(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.Session(ds.Cat)
	stmt, err := sess.Prepare(context.Background(), ssb.SQLTexts["1.1"])
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Query(context.Background(), ssb.SQLTexts["1.1"]); err == nil {
		t.Error("Query on a closed engine succeeded")
	}
	if _, _, err := stmt.Run(context.Background()); err == nil {
		t.Error("Stmt.Run on a closed engine succeeded")
	}
}

// assertNoSpillFiles checks that the engine's spill directory holds no
// leftover snapshots after Close.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	var left []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			left = append(left, path)
		}
		return nil
	})
	if len(left) > 0 {
		t.Errorf("spill files left after Close: %v", left)
	}
}

// assertNoLeakedGoroutines waits briefly for helper goroutines to drain
// and fails if execution goroutines survive. The check is by count with a
// grace period — the runtime keeps a few background goroutines of its own.
func assertNoLeakedGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	base := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if n := runtime.NumGoroutine(); n <= base {
			base = n
		}
		if leakedExecGoroutines() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("execution goroutines still running:\n%s", buf[:n])
}

// leakedExecGoroutines counts goroutines parked inside this module's
// execution paths (core scheduler loops, spill waits).
func leakedExecGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "qppt/internal/core.") || strings.Contains(g, "qppt/internal/spill.") {
			count++
		}
	}
	return count
}
