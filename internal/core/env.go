package core

import (
	"qppt/internal/arena"
	"qppt/internal/spill"
)

// An Env is the execution environment every plan runs in: the shared
// worker pool, the cross-plan chunk recycler, and the spill manager whose
// byte budget spans every concurrent plan. Env.Run is the only way a plan
// executes, so the steady state the prefix-tree processing model builds
// up (warm chunk pools, a stable worker pool, one spill budget) carries
// across queries instead of being re-created and re-collected per plan; a
// server embeds one Env in a qppt.Engine.
//
// An Env is safe for concurrent use: any number of plans may run against
// it at once. The scheduler bounds the *helper* goroutines across all of
// them; each plan's calling goroutine additionally works inline, so K
// concurrent plans on a pool of W workers run at most K+W−1 execution
// goroutines. Close releases the spill state; plans must not be running.
type Env struct {
	sched *Scheduler
	rec   *arena.Recycler
	spill *spill.Manager
}

// EnvConfig parameterizes NewEnv: the resources plans share, as opposed to
// the per-query Options. The zero value is a serial environment with no
// spill budget.
type EnvConfig struct {
	// Workers sizes the shared worker pool (scheduler.go). The same pool
	// serves inter-operator parallelism (independent plan branches run
	// concurrently) and intra-operator parallelism (operators split their
	// scans into work-stealing key-range morsels, paper Section 7), so
	// goroutine count is bounded by Workers no matter how many operators
	// run at once. 0 or 1 = serial, the paper's evaluation mode;
	// WorkersAuto sizes the pool to GOMAXPROCS.
	//
	// Results are schedule-independent: keys, per-key row multisets and
	// folded aggregates are identical to serial execution. The one
	// exception is the *order* of duplicate rows under a single key of a
	// non-folding output, which depends on which worker claimed which
	// morsel; consumers of plain outputs must not rely on intra-key row
	// order when Workers > 1.
	Workers int
	// MemBudget caps the resident bytes of intermediate indexes across
	// every plan sharing this Env. When the plans exceed it, cold
	// intermediates are frozen — their arena chunks written to temp files
	// in one sequential pass — and restored on next access,
	// least-recently-used first (package spill). 0 disables spilling;
	// results are identical either way. Base indexes never spill: the
	// budget governs what plans *add*.
	MemBudget int64
	// SpillDir is where frozen intermediates are written. Empty uses a
	// private directory under the OS temp dir, removed by Close.
	SpillDir string
}

// recycleCap bounds the bytes an Env's chunk pool may retain: enough to
// carry the steady-state chunk population of a heavy analytical suite,
// small enough that one freak plan cannot pin its peak footprint for the
// Env's lifetime. Chunks beyond it go to the garbage collector and are
// counted as trim evictions.
const recycleCap = 256 << 20

// NewEnv builds an execution environment. Every Env has a chunk recycler:
// when the last consumer of an intermediate index finishes, the index's
// node chunks, leaf chunks and slab blocks are cleared and parked in a
// size-classed pool that later index allocations (including worker
// partials and thaws, in this plan or the next) draw from first — instead
// of cycling the same chunk shapes through the garbage collector once per
// operator.
func NewEnv(cfg EnvConfig) (*Env, error) {
	env := &Env{sched: NewScheduler(poolWorkers(cfg.Workers)), rec: arena.NewRecycler()}
	env.rec.SetCap(recycleCap)
	if cfg.MemBudget > 0 {
		mgr, err := spill.New(cfg.MemBudget, cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		env.spill = mgr
	}
	return env, nil
}

// Workers reports the shared pool size.
func (e *Env) Workers() int { return e.sched.Workers() }

// RecyclerStats snapshots the session recycler's counters.
func (e *Env) RecyclerStats() arena.RecyclerStats { return e.rec.Stats() }

// SpillStats snapshots the shared spill manager's counters (zero without
// a memory budget).
func (e *Env) SpillStats() spill.Stats {
	if e.spill == nil {
		return spill.Stats{}
	}
	return e.spill.Stats()
}

// Close tears the environment down, deleting all spill state. Every plan
// using the Env must have finished: results never entered the spill
// manager, so they stay valid after Close.
func (e *Env) Close() error {
	if e == nil {
		return nil
	}
	if e.spill != nil {
		return e.spill.Close()
	}
	return nil
}
