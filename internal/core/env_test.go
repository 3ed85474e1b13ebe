package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRunCancelMidScan cancels the context deterministically from
// inside a selection's residual filter: the scan must stop within one
// abort-poll window and Env.Run must report context.Canceled instead of a
// partial result — for a lone selection, and for a σ→σ plan under a
// 1-byte budget, cancelled while the outer selection holds its spilled
// input pinned (newTestEnv's Close and spill-directory checks catch a pin
// or file left behind).
func TestRunCancelMidScan(t *testing.T) {
	const nKeys = 200000
	idx := NewIndex(IndexConfig{KeyBits: 32})
	for k := uint64(0); k < nKeys; k++ {
		idx.Insert(k, nil)
	}
	base := NewIndexedTable("big[k]", SimpleKey("k", 32), nil, idx)
	out := func(name string) OutputSpec {
		return OutputSpec{Name: name, Key: SimpleKey("k", 32), KeyRefs: []Ref{{Input: 0, Attr: "k"}}}
	}
	for _, tc := range []struct {
		name  string
		env   EnvConfig
		input func() Operator
	}{
		{"selection", EnvConfig{}, func() Operator { return &Base{Table: base} }},
		{"σ→σ under a budget", EnvConfig{MemBudget: 1}, func() Operator {
			return &Selection{Input: &Base{Table: base}, Out: out("inner")}
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		const cancelAt = 1000
		seen := 0
		plan := &Plan{Root: &Selection{
			Input: tc.input(),
			Residual: func([]uint64) bool {
				seen++
				if seen == cancelAt {
					cancel()
				}
				return true
			},
			Out: out("out"),
		}}
		env := newTestEnv(t, tc.env)
		res, _, err := env.Run(ctx, plan, Options{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Run returned err=%v out=%v, want context.Canceled", tc.name, err, res)
		}
		if tc.env.MemBudget > 0 {
			if st := env.spill.Stats(); st.Spills == 0 || st.Restores == 0 {
				t.Errorf("%s: %d spills, %d restores: the outer selection never pinned a spilled input", tc.name, st.Spills, st.Restores)
			}
		}
		// The abort poll runs every abortTickMask+1 fed combinations; the scan
		// must not have continued much past the cancellation point.
		if limit := cancelAt + 2*(abortTickMask+1); seen > limit {
			t.Errorf("%s: scan visited %d rows after cancelling at %d (limit %d)", tc.name, seen, cancelAt, limit)
		}
	}
}

// TestRunCancelParallel: the same deterministic cancellation under
// morsel-driven execution — every worker must stop claiming and Env.Run
// must unwind without deadlocking on the shared pool.
func TestRunCancelParallel(t *testing.T) {
	const nKeys = 200000
	idx := NewIndex(IndexConfig{KeyBits: 32})
	for k := uint64(0); k < nKeys; k++ {
		idx.Insert(k, nil)
	}
	base := NewIndexedTable("big[k]", SimpleKey("k", 32), nil, idx)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := &Plan{Root: &Selection{
		Input: &Base{Table: base},
		Residual: func([]uint64) bool {
			cancel() // idempotent; the first combination cancels the query
			return true
		},
		Out: OutputSpec{
			Name:    "out",
			Key:     SimpleKey("k", 32),
			KeyRefs: []Ref{{Input: 0, Attr: "k"}},
		},
	}}
	_, _, err := newTestEnv(t, EnvConfig{Workers: 4}).Run(ctx, plan, Options{MorselsPerWorker: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel Run returned %v, want context.Canceled", err)
	}
}

// TestEnvCrossPlanReuse: two identical plans run back-to-back against one
// Env must produce bit-identical results, and the second plan's index
// allocations must be served from the chunks the first plan dropped —
// the cross-plan steady state the Env recycler exists for.
func TestEnvCrossPlanReuse(t *testing.T) {
	f := buildFixture(21)
	want, _, err := run(t, EnvConfig{}, starPlan(f, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := Extract(want).Rows

	env := newTestEnv(t, EnvConfig{Recycle: true})
	var firstReuse int
	for pass := 0; pass < 2; pass++ {
		out, stats, err := env.Run(context.Background(), starPlan(f, 2), Options{CollectStats: true})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(Extract(out).Rows, wantRows) {
			t.Fatalf("pass %d: env-run result differs", pass)
		}
		if pass == 0 {
			firstReuse = stats.ChunksReused
		} else if stats.ChunksReused <= firstReuse {
			t.Errorf("second plan reused %d chunks, first %d — no cross-plan reuse",
				stats.ChunksReused, firstReuse)
		}
	}
	if rs := env.RecyclerStats(); rs.Reused == 0 {
		t.Errorf("env recycler recorded no reuse: %+v", rs)
	}
}

// TestEnvSharedSpillKeepsResultOut: under the Env's spill manager, a
// plan's intermediates must leave the spill directory with the plan, and
// its result — which never enters the manager — must stay fully usable,
// including after later plans churn the budget and after Env.Close.
func TestEnvSharedSpillKeepsResultOut(t *testing.T) {
	dir := t.TempDir()
	env, err := NewEnv(EnvConfig{Recycle: true, MemBudget: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f := buildFixture(22)
	want, _, err := run(t, EnvConfig{}, starPlan(f, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := Extract(want).Rows

	out, stats, err := env.Run(context.Background(), starPlan(f, 2), Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spills == 0 {
		t.Fatalf("1-byte budget produced no spills: %+v", stats)
	}
	// Every spill file of the finished plan must be gone: dropped
	// intermediates delete theirs, the result never had one.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, filepath.Join(dir, e.Name()))
	}
	if len(files) > 0 {
		t.Errorf("spill files left after the plan finished: %v", files)
	}
	// Churn the budget with another plan, then close the env; the first
	// result must stay intact throughout.
	if _, _, err := env.Run(context.Background(), starPlan(f, 3), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Extract(out).Rows; !reflect.DeepEqual(got, wantRows) {
		t.Fatal("result changed after env churn and Close")
	}
}
