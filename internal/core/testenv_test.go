package core

import (
	"context"
	"os"
	"testing"
)

// newTestEnv builds the Env a test runs its plans in and, when the test
// ends, checks that the Env leaves nothing behind: Close succeeds, the
// spill directory is empty, and every scheduler helper has returned its
// pool token (a helper goroutine still running holds one).
func newTestEnv(t testing.TB, cfg EnvConfig) *Env {
	t.Helper()
	if cfg.MemBudget > 0 && cfg.SpillDir == "" {
		cfg.SpillDir = t.TempDir()
	}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Close(); err != nil {
			t.Errorf("env.Close: %v", err)
		}
		if cfg.SpillDir != "" {
			left, err := os.ReadDir(cfg.SpillDir)
			if err != nil {
				t.Errorf("spill dir after Close: %v", err)
			}
			for _, e := range left {
				t.Errorf("spill file left behind: %s", e.Name())
			}
		}
		if idle, size := len(env.sched.tokens), cap(env.sched.tokens); idle != size {
			t.Errorf("%d of %d scheduler helpers still running after the test", size-idle, size)
		}
	})
	return env
}

// run executes the plan in a fresh leak-checked Env built from cfg — what
// a test uses when it runs one plan under one configuration.
func run(t testing.TB, cfg EnvConfig, pl *Plan, opts Options) (*IndexedTable, *PlanStats, error) {
	t.Helper()
	return newTestEnv(t, cfg).Run(context.Background(), pl, opts)
}
