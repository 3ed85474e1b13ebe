package qppt_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/ssb"
)

// TestConnStmtCache: Engine.Conn sessions cache prepared statements in
// an LRU of DefaultStmtCacheSize entries with engine-wide
// hit/miss/eviction counters; plain Sessions never cache.
func TestConnStmtCache(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	conn := eng.Conn(ds.Cat)
	ctx := context.Background()
	prepare := func(text string) {
		t.Helper()
		if _, err := conn.PrepareCached(ctx, text); err != nil {
			t.Fatal(err)
		}
	}

	a, err := conn.PrepareCached(ctx, ssb.SQLTexts["1.1"])
	if err != nil {
		t.Fatal(err)
	}
	b, err := conn.PrepareCached(ctx, ssb.SQLTexts["1.1"])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second PrepareCached of one text returned a different statement")
	}
	st := eng.Stats().StmtCache
	if st.Hits != 1 || st.Misses != 1 || st.Cached != 1 {
		t.Errorf("after one repeat: stats %+v, want 1 hit / 1 miss / 1 cached", st)
	}

	// Fill the cache to capacity: nothing is evicted yet.
	const size = qppt.DefaultStmtCacheSize
	texts := pointTexts(ds, size)
	for _, text := range texts[:size-1] {
		prepare(text)
	}
	st = eng.Stats().StmtCache
	if st.Evicted != 0 || st.Cached != size {
		t.Errorf("at capacity: stats %+v, want 0 evicted / %d cached", st, size)
	}
	// One distinct text more evicts the least recently used: 1.1.
	prepare(texts[size-1])
	st = eng.Stats().StmtCache
	if st.Evicted != 1 || st.Cached != size {
		t.Errorf("after overflow: stats %+v, want 1 evicted / %d cached", st, size)
	}
	// Re-preparing 1.1 is a miss, the newest text stays a hit.
	prepare(texts[size-1])
	prepare(ssb.SQLTexts["1.1"])
	st = eng.Stats().StmtCache
	if st.Hits != 2 || st.Misses != size+2 || st.Evicted != 2 {
		t.Errorf("after LRU churn: stats %+v, want 2 hits / %d misses / 2 evicted", st, size+2)
	}

	// Cached statements stay runnable and correct.
	rows, _, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := eng.Session(ds.Cat).Query(ctx, ssb.SQLTexts["1.1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != len(ref.Rows) {
		t.Errorf("cached statement returned %d rows, want %d", len(rows.Rows), len(ref.Rows))
	}

	// Close drops the connection's entries from the engine-wide gauge.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats().StmtCache; st.Cached != 0 {
		t.Errorf("cached gauge %d after Conn.Close, want 0", st.Cached)
	}

	// Plain sessions never cache.
	sess := eng.Session(ds.Cat)
	before := eng.Stats().StmtCache
	if _, err := sess.PrepareCached(ctx, ssb.SQLTexts["1.1"]); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats().StmtCache; after != before {
		t.Errorf("plain Session touched the statement cache: %+v -> %+v", before, after)
	}
}

// TestEngineAdmission: with MaxPlans set, concurrent queries pass the
// gate (all admitted, results correct), Stats reports the traffic, and
// PlanStats carries the queue wait.
func TestEngineAdmission(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2, MaxPlans: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ref, _, err := eng.Session(ds.Cat).Query(context.Background(), ssb.SQLTexts["2.2"])
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.Session(ds.Cat)
			rows, _, err := sess.Query(context.Background(), ssb.SQLTexts["2.2"])
			if err != nil {
				errs <- err
				return
			}
			if len(rows.Rows) != len(ref.Rows) {
				errs <- errors.New("result changed under admission control")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := eng.Stats()
	if st.Admission.MaxPlans != 1 || st.Admission.Admitted < n {
		t.Errorf("admission stats %+v, want MaxPlans 1 and >= %d admitted", st.Admission, n)
	}
	if st.Admission.Running != 0 || st.Admission.Queued != 0 {
		t.Errorf("gate not drained: %+v", st.Admission)
	}
	if s := st.String(); s == "" {
		t.Error("Stats.String() empty")
	}
}

// TestEngineAdmissionWait: PlanStats.AdmissionWait is the time a run
// spent at the gate. Under MaxPlans 1 a hand-built plan holds the gate —
// its computed column blocks until the test lets go — while a prepared statement
// queues behind it; the gate stays held for hold after the statement
// queued, so that run reports at least hold. A run admitted at once
// reports exactly 0, and its stats print no admission line.
func TestEngineAdmissionWait(t *testing.T) {
	const hold = 20 * time.Millisecond
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 1, MaxPlans: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	stmt, err := eng.Session(ds.Cat).Prepare(ctx, ssb.SQLTexts["1.1"])
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := stmt.Run(ctx, qppt.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	if stats.AdmissionWait != 0 {
		t.Errorf("a run that did not queue reports AdmissionWait %v", stats.AdmissionWait)
	}
	if s := stats.String(); strings.Contains(s, "admission:") {
		t.Errorf("a run that did not queue prints an admission line:\n%s", s)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	holder := &core.Selection{
		Input: &core.Base{Table: ds.Date.MustIndex([]string{"d_year"})},
		Out: core.OutputSpec{Name: "held", Cols: []string{"h"}, ColExprs: []core.RowExpr{core.Computed(func([]uint64) uint64 {
			once.Do(func() { close(entered); <-release })
			return 0
		})}},
	}
	held := make(chan error, 1)
	go func() {
		out, _, err := eng.RunPlan(ctx, &core.Plan{Root: holder})
		out.Release()
		held <- err
	}()
	<-entered
	type result struct {
		stats *core.PlanStats
		err   error
	}
	queued := make(chan result, 1)
	go func() {
		_, stats, err := stmt.Run(ctx, qppt.WithStats())
		queued <- result{stats, err}
	}()
	for eng.Stats().Admission.Queued == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(hold)
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	r := <-queued
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.stats.AdmissionWait < hold {
		t.Errorf("a run that queued %v behind a held gate reports AdmissionWait %v", hold, r.stats.AdmissionWait)
	}
}

// TestEngineNoAdmission: the zero config keeps the gate off — Stats
// reports an empty admission block and queries never wait.
func TestEngineNoAdmission(t *testing.T) {
	ds := engineDataset(t)
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, _, err := eng.Session(ds.Cat).Query(context.Background(), ssb.SQLTexts["1.2"]); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats().Admission; st.MaxPlans != 0 || st.Admitted != 0 {
		t.Errorf("gate active without MaxPlans: %+v", st)
	}
}
