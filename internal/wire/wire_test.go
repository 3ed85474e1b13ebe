package wire_test

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

var (
	wireDSOnce sync.Once
	wireDS     *ssb.Dataset
)

// wireDataset loads one shared SSB instance for the package — the same
// scale the engine suite uses, big enough that every query returns rows.
func wireDataset(t *testing.T) *ssb.Dataset {
	t.Helper()
	wireDSOnce.Do(func() {
		wireDS = ssb.MustLoad(ssb.GenConfig{SF: 0.02, Seed: 42})
	})
	return wireDS
}

// reference runs every SSB query in-process on its own session — the
// bit-identity oracle the wire results must match exactly.
func reference(t *testing.T, eng *qppt.Engine, ds *ssb.Dataset) map[string]*refResult {
	t.Helper()
	sess := eng.Session(ds.Cat)
	out := make(map[string]*refResult, len(ssb.QueryIDs))
	for _, qid := range ssb.QueryIDs {
		rows, _, err := sess.Query(context.Background(), ssb.SQLTexts[qid])
		if err != nil {
			t.Fatalf("reference %s: %v", qid, err)
		}
		out[qid] = &refResult{attrs: rows.Attrs, rows: rows.Rows}
	}
	return out
}

type refResult struct {
	attrs []string
	rows  [][]uint64
}

func (r *refResult) check(qid string, res *client.Result) error {
	if !reflect.DeepEqual(res.Attrs, r.attrs) {
		return fmt.Errorf("%s: attrs %v over the wire, want %v", qid, res.Attrs, r.attrs)
	}
	if len(res.Rows) != len(r.rows) {
		return fmt.Errorf("%s: %d rows over the wire, want %d", qid, len(res.Rows), len(r.rows))
	}
	for i := range r.rows {
		if !reflect.DeepEqual(res.Rows[i], r.rows[i]) {
			return fmt.Errorf("%s row %d: %v over the wire, want %v (bit-identity broken)", qid, i, res.Rows[i], r.rows[i])
		}
	}
	return nil
}

// assertNoLeakedGoroutines fails if wire/execution goroutines survive
// the servers and engines a test closed.
func assertNoLeakedGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if leakedGoroutines() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("wire/execution goroutines still running:\n%s", buf[:n])
}

func leakedGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "qppt/internal/wire.") ||
			strings.Contains(g, "qppt/internal/core.") ||
			strings.Contains(g, "qppt/internal/spill.") {
			count++
		}
	}
	return count
}

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
		t.Errorf("spill files left after close: %v", left)
	}
}

// TestWireSSBBitIdentical: all 13 SSB queries over the wire protocol
// return byte-for-byte the rows an in-process Session.Query returns,
// and decoded mode matches Rows.Decode cell by cell.
func TestWireSSBBitIdentical(t *testing.T) {
	ds := wireDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	refs := reference(t, eng, ds)

	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()
	cc, err := client.NewPipe(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.Banner == "" || cc.Version != wire.Version {
		t.Fatalf("handshake negotiated banner %q version %d", cc.Banner, cc.Version)
	}

	for _, qid := range ssb.QueryIDs {
		res, err := cc.Query(ssb.SQLTexts[qid])
		if err != nil {
			t.Fatalf("%s over the wire: %v", qid, err)
		}
		if err := refs[qid].check(qid, res); err != nil {
			t.Fatal(err)
		}
	}

	// Decoded mode: cells match the in-process catalog decoding.
	sess := eng.Session(ds.Cat)
	rows, _, err := sess.Query(context.Background(), ssb.SQLTexts["3.1"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.QueryDecoded(ssb.SQLTexts["3.1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strs) != len(rows.Rows) {
		t.Fatalf("decoded rows %d, want %d", len(res.Strs), len(rows.Rows))
	}
	for i := range rows.Rows {
		for c := range rows.Attrs {
			if want := rows.Decode(i, c); res.Strs[i][c] != want {
				t.Fatalf("decoded cell (%d,%d) = %q over the wire, want %q", i, c, res.Strs[i][c], want)
			}
		}
	}

	cc.Close()
	srv.Close()
	eng.Close()
	assertNoLeakedGoroutines(t)
}

// TestWirePrepareBindExecute: the extended protocol — named statements,
// portals, repeated execution through the statement cache — and its
// error classes for unknown names.
func TestWirePrepareBindExecute(t *testing.T) {
	ds := wireDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()
	cc, err := client.NewPipe(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	attrs, err := cc.Prepare("q21", ssb.SQLTexts["2.1"])
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Bind("p", "q21"); err != nil {
		t.Fatal(err)
	}
	first, err := cc.Execute("p")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Attrs, attrs) {
		t.Fatalf("Execute attrs %v, want PrepareOK's %v", first.Attrs, attrs)
	}
	second, err := cc.Execute("p")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatal("repeated Execute of one portal returned different rows")
	}

	// A Query of the same text hits the per-connection statement cache.
	if _, err := cc.Query(ssb.SQLTexts["2.1"]); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().StmtCache; st.Hits == 0 {
		t.Errorf("statement cache hits = 0 after re-preparing one text, want > 0 (stats %+v)", st)
	}

	// A second statement name for the same SQL shares the cached plan;
	// its portals must survive closing the *other* name.
	if _, err := cc.Prepare("q21b", ssb.SQLTexts["2.1"]); err != nil {
		t.Fatal(err)
	}
	if err := cc.Bind("pb", "q21b"); err != nil {
		t.Fatal(err)
	}

	if err := cc.CloseStmt("q21"); err != nil {
		t.Fatal(err)
	}
	var werr *wire.Error
	if err := cc.Bind("p2", "q21"); !errors.As(err, &werr) || werr.Class != wire.ClassBadRequest {
		t.Fatalf("Bind to a closed statement returned %v, want ClassBadRequest", err)
	}
	// Closing a statement implicitly closes its portals (Postgres
	// semantics) — but only its own, not the same-text sibling's.
	if _, err := cc.Execute("p"); !errors.As(err, &werr) || werr.Class != wire.ClassBadRequest {
		t.Fatalf("Execute of a closed statement's portal returned %v, want ClassBadRequest", err)
	}
	if again, err := cc.Execute("pb"); err != nil {
		t.Fatalf("Execute of the sibling statement's portal: %v", err)
	} else if !reflect.DeepEqual(first.Rows, again.Rows) {
		t.Fatal("sibling portal returned different rows after CloseStmt of the other name")
	}
	if _, err := cc.Execute("nope"); !errors.As(err, &werr) || werr.Class != wire.ClassBadRequest {
		t.Fatalf("Execute of unknown portal returned %v, want ClassBadRequest", err)
	}
	if _, err := cc.Query("SELECT nonsense FROM nowhere"); !errors.As(err, &werr) || werr.Class != wire.ClassBadRequest {
		t.Fatalf("bad SQL returned %v, want ClassBadRequest", err)
	}

	cc.Close()
	srv.Close()
	eng.Close()
	assertNoLeakedGoroutines(t)
}

// hostileThenQ21 sends each text on one in-process connection and hands
// its answer to check, then requires the same connection to answer SSB
// Q2.1 correctly: the server is still there.
func hostileThenQ21(t *testing.T, texts []string, check func(text string, res *client.Result, err error)) {
	t.Helper()
	ds := wireDataset(t)
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, _, err := eng.Session(ds.Cat).Query(context.Background(), ssb.SQLTexts["2.1"])
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()
	cc, err := client.NewPipe(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	for _, text := range texts {
		res, err := cc.Query(text)
		check(text, res, err)
	}
	res, err := cc.Query(ssb.SQLTexts["2.1"])
	if err != nil {
		t.Fatalf("Q2.1 after the hostile texts: %v", err)
	}
	ref := &refResult{attrs: want.Attrs, rows: want.Rows}
	if err := ref.check("2.1", res); err != nil {
		t.Fatal(err)
	}
}

// TestWireHostileSQLIsBadRequest: texts that once panicked the planner —
// a number literal above 2^64-1, a FROM table no join reaches — answer the
// connection that sent them with ClassBadRequest.
func TestWireHostileSQLIsBadRequest(t *testing.T) {
	hostileThenQ21(t, []string{
		"select sum(lo_revenue) from lineorder where lo_quantity = 99999999999999999999",
		"select sum(lo_revenue) from lineorder, date, part where lo_orderdate = d_datekey group by p_brand1",
	}, func(text string, _ *client.Result, err error) {
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Class != wire.ClassBadRequest {
			t.Fatalf("%q returned %v, want ClassBadRequest", text, err)
		}
	})
}

// TestWireEqualityBeyondKeySpace: an equality literal above 2^32−1 on a
// column indexed by a KISS-Tree (32-bit keys) is a predicate no row
// matches, not a key to check: each text answers 0 rows.
func TestWireEqualityBeyondKeySpace(t *testing.T) {
	hostileThenQ21(t, []string{
		"select sum(lo_revenue) from lineorder where lo_quantity = 4294967296",
		"select sum(lo_revenue) from lineorder where lo_orderdate = 4294967296",
		"select sum(lo_revenue) from lineorder, date where lo_orderdate = d_datekey and d_year = 99999999999",
	}, func(text string, res *client.Result, err error) {
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%q answered %d rows, want 0", text, len(res.Rows))
		}
	})
}

// TestWireConcurrentClients: 8 concurrent TCP clients × two passes over
// all 13 SSB queries against an admission-capped engine. Every result
// must stay bit-identical under contention, the statement caches must
// record hits, and shutdown must leave no goroutine behind. (Queue-wait
// metrics are pinned by TestWireOverload, whose spill-throttled queries
// are long enough to overlap deterministically even on one CPU.)
func TestWireConcurrentClients(t *testing.T) {
	ds := wireDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2, MaxPlans: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	refs := reference(t, eng, ds)

	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const clients = 8
	conns := make([]*client.Conn, clients)
	for i := range conns {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if conns[i], err = client.NewConn(nc); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for _, cc := range conns {
		wg.Add(1)
		go func(cc *client.Conn) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ { // second pass hits the stmt cache
				for _, qid := range ssb.QueryIDs {
					res, err := cc.Query(ssb.SQLTexts[qid])
					if err != nil {
						errs <- fmt.Errorf("%s: %w", qid, err)
						return
					}
					if err := refs[qid].check(qid, res); err != nil {
						errs <- err
						return
					}
				}
			}
		}(cc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := eng.Stats()
	if st.Admission.Admitted < int64(clients*2*len(ssb.QueryIDs)) {
		t.Errorf("admitted %d plans, want >= %d", st.Admission.Admitted, clients*2*len(ssb.QueryIDs))
	}
	if st.StmtCache.Hits < int64(clients*len(ssb.QueryIDs)) {
		t.Errorf("statement cache hits %d, want >= %d (one full pass per client)", st.StmtCache.Hits, clients*len(ssb.QueryIDs))
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, wire.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	assertNoLeakedGoroutines(t)
}

// TestWireCancelFrame: an out-of-band Cancel frame aborts the in-flight
// query, the aborted command answers ClassCancelled, and the connection
// stays usable — with no spill files or goroutines left behind.
func TestWireCancelFrame(t *testing.T) {
	ds := wireDataset(t)
	spillDir := t.TempDir()
	eng, err := qppt.New(qppt.Config{Workers: 2, MemBudget: 1 << 20, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()
	cc, err := client.NewPipe(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	sawCancel := false
	for _, delay := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		timer := time.AfterFunc(delay, func() { cc.Cancel() })
		res, err := cc.Query(ssb.SQLTexts["4.1"])
		timer.Stop()
		var werr *wire.Error
		switch {
		case err == nil:
			if res == nil || len(res.Attrs) == 0 {
				t.Fatalf("cancelled query (delay %v) returned an empty result without error", delay)
			}
		case errors.As(err, &werr) && werr.Class == wire.ClassCancelled:
			sawCancel = true
		default:
			t.Fatalf("cancelled query (delay %v) returned %v, want success or ClassCancelled", delay, err)
		}
	}
	if !sawCancel {
		t.Log("no cancellation landed mid-run (fast machine or tiny dataset)")
	}

	// The connection survives cancellation and still answers correctly. A
	// stray Cancel from the sweep may race into this query (the timer can
	// fire as its Query returns); that cancels one command, not the conn.
	if _, err := cc.Query(ssb.SQLTexts["1.1"]); err != nil {
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Class != wire.ClassCancelled {
			t.Fatalf("query after cancellations: %v", err)
		}
		if _, err := cc.Query(ssb.SQLTexts["1.1"]); err != nil {
			t.Fatalf("query after stray cancel: %v", err)
		}
	}

	cc.Close()
	srv.Close()
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	assertNoSpillFiles(t, spillDir)
	assertNoLeakedGoroutines(t)
}

// TestWireDisconnectAborts: a client that vanishes mid-query takes the
// in-flight plan down with it — the conn context aborts the run, and
// server shutdown drains cleanly with no leaked goroutines, pins or
// spill files.
func TestWireDisconnectAborts(t *testing.T) {
	ds := wireDataset(t)
	spillDir := t.TempDir()
	eng, err := qppt.New(qppt.Config{Workers: 2, MemBudget: 1 << 20, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()

	for _, delay := range []time.Duration{100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		cc, err := client.NewPipe(srv)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := cc.Query(ssb.SQLTexts["4.1"])
			done <- err
		}()
		time.Sleep(delay)
		cc.Close() // vanish mid-query
		<-done     // the query call returns (result or connection error) — no hang
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	assertNoSpillFiles(t, spillDir)
	assertNoLeakedGoroutines(t)
}

// TestWireOverload: 4× the admission cap of simultaneous clients. The
// gate must shed the excess with honest ClassOverloaded answers (which
// errors.Is-match qppt.ErrOverloaded through the wire), record queue
// waits for the clients it delays, never hang, and keep serving
// afterwards. A small memory budget makes each query spill: the file
// I/O yields the processor, so later arrivals reach the gate while the
// admitted query is still running — deterministic contention even on a
// single-CPU machine, where pure-CPU queries would serialize admission
// arrivals behind the running plan.
func TestWireOverload(t *testing.T) {
	ds := wireDataset(t)
	spillDir := t.TempDir()
	eng, err := qppt.New(qppt.Config{Workers: 2, MaxPlans: 1, QueueDepth: 1,
		MemBudget: 1 << 20, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()

	const storm = 8 // 4× the single-waiter capacity (1 running + 1 queued)
	conns := make([]*client.Conn, storm)
	for i := range conns {
		if conns[i], err = client.NewPipe(srv); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	// Warm every connection's statement cache first: a fresh connection's
	// first query plans under shared catalog locks, which would serialize
	// the storm before it ever reached the admission gate.
	for _, cc := range conns {
		if _, err := cc.Query(ssb.SQLTexts["4.1"]); err != nil {
			t.Fatal(err)
		}
	}

	// Barrier-fire all 8 at once; bounded retries absorb the (unlikely)
	// round where the scheduler never overlaps two executions.
	ok, shed := 0, 0
	for round := 0; round < 50 && (ok == 0 || shed == 0); round++ {
		start := make(chan struct{})
		results := make(chan error, storm)
		var wg sync.WaitGroup
		for _, cc := range conns {
			wg.Add(1)
			go func(cc *client.Conn) {
				defer wg.Done()
				<-start
				_, err := cc.Query(ssb.SQLTexts["4.1"])
				results <- err
			}(cc)
		}
		close(start)
		wg.Wait()
		close(results)

		for err := range results {
			var werr *wire.Error
			switch {
			case err == nil:
				ok++
			case errors.As(err, &werr) && werr.Class == wire.ClassOverloaded:
				shed++
			default:
				t.Fatalf("storm query returned %v, want success or an overloaded error", err)
			}
		}
	}
	if ok == 0 {
		t.Error("no query in the storm succeeded")
	}
	if shed == 0 {
		t.Error("no query in the storm was shed with ErrOverloaded")
	}
	st := eng.Stats()
	if st.Admission.Rejected == 0 {
		t.Errorf("gate recorded no rejections (stats %+v)", st.Admission)
	}
	// The client the gate queued (rather than shed) waited for the slot.
	if st.Admission.Waited == 0 || st.Admission.WaitTime == 0 {
		t.Errorf("gate recorded no queue waits (stats %+v)", st.Admission)
	}
	// The storm re-ran each connection's warmed statement.
	if st.StmtCache.Hits == 0 {
		t.Error("storm recorded no statement-cache hits")
	}

	// The server keeps answering after the storm.
	if _, err := conns[0].Query(ssb.SQLTexts["1.1"]); err != nil {
		t.Fatalf("query after the storm: %v", err)
	}

	for _, cc := range conns {
		cc.Close()
	}
	srv.Close()
	eng.Close()
	assertNoSpillFiles(t, spillDir)
	assertNoLeakedGoroutines(t)
}
