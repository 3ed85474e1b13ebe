// Package qppt is the public embedding surface of the QPPT engine — the
// prefix-tree query processing model of Kissinger et al. (CIDR 2013) as a
// long-lived, multi-query service instead of a one-shot plan executor.
//
// An Engine owns the execution resources whose value only shows across
// queries: the shared morsel-scheduler worker pool, a session-scoped chunk
// recycler (dropped intermediate indexes feed the next query's
// allocations), and one spill manager whose memory budget spans every
// concurrent plan. Sessions opened on the Engine compile and run SQL with
// context cancellation:
//
//	eng, _ := qppt.New(qppt.Config{Workers: 8, MemBudget: 512 << 20})
//	defer eng.Close()
//	sess := eng.Session(cat)
//	rows, _, err := sess.Query(ctx, "select d_year, sum(lo_revenue) ...")
//
// Plans built directly against internal/core run through the same engine
// with RunPlan. There is no other way to run a plan: the Engine's core.Env
// is the one place worker pool, chunk pool and spill budget are created.
package qppt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qppt/internal/admission"
	"qppt/internal/arena"
	"qppt/internal/catalog"
	"qppt/internal/core"
	"qppt/internal/spill"
	"qppt/internal/sql"
)

// Config parameterizes an Engine. The zero value is a serial engine with
// cross-plan chunk recycling and no memory budget.
type Config struct {
	// Workers sizes the shared worker pool every plan draws from
	// (core.WorkersAuto sizes it to GOMAXPROCS; 0 or 1 is serial). The
	// pool is an engine property: per-query options cannot resize it.
	Workers int
	// MemBudget caps the resident bytes of intermediate indexes across
	// all concurrent plans; cold intermediates spill to SpillDir and thaw
	// on access (0 = no spilling).
	MemBudget int64
	SpillDir  string
	// Deprecated: set by benchmark/check.go; nothing in the engine writes or reads it.
	DisableFusion bool
	// MaxPlans caps the plans executing concurrently: an admission gate
	// in front of RunPlan/Stmt.Run queues later arrivals per session
	// (round-robin across sessions, FIFO within) and answers
	// ErrOverloaded once a session's queue is admission.DefaultQueueDepth
	// deep — the serving tier's backpressure. 0 disables admission
	// control (the historical unbounded behavior for embedded use).
	MaxPlans int
}

// ErrEngineClosed is returned by every query entry point after Close.
var ErrEngineClosed = errors.New("qppt: engine is closed")

// ErrOverloaded is returned by query entry points when the caller's
// admission queue is full (Config.MaxPlans): the engine is shedding load
// instead of buffering unboundedly. Servers surface it as a typed overload
// answer (wire.ClassOverloaded, HTTP 503); clients should back off and
// retry.
var ErrOverloaded = admission.ErrOverloaded

// An Engine is a long-lived query engine: one worker pool, one session
// chunk pool and one spill budget shared by every session and plan run
// against it. Engines are safe for concurrent use, including Close:
// queries that began before Close finish normally (Close drains them
// before tearing down the shared spill state), later ones fail with
// ErrEngineClosed.
type Engine struct {
	env     *core.Env
	queries atomic.Int64
	// gate is the admission controller (nil without Config.MaxPlans).
	gate     *admission.Gate
	nextSess atomic.Uint64

	// Per-Conn statement caches aggregate their counters here so
	// Stats reports cache traffic engine-wide.
	stmtHits    atomic.Int64
	stmtMisses  atomic.Int64
	stmtEvicted atomic.Int64
	stmtCached  atomic.Int64

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// New builds an Engine from the configuration.
func New(cfg Config) (*Engine, error) {
	env, err := core.NewEnv(core.EnvConfig{
		Workers:   cfg.Workers,
		MemBudget: cfg.MemBudget,
		SpillDir:  cfg.SpillDir,
	})
	if err != nil {
		return nil, err
	}
	eng := &Engine{env: env}
	if cfg.MaxPlans > 0 {
		eng.gate = admission.New(admission.Config{MaxPlans: cfg.MaxPlans})
	}
	return eng, nil
}

// Env exposes the engine's execution environment for callers that run
// plans or planned statements on it directly (sql.Statement.Run,
// core.Env.Run; the figure benchmarks, tests).
func (e *Engine) Env() *core.Env { return e.env }

// Workers reports the shared pool size.
func (e *Engine) Workers() int { return e.env.Workers() }

// Stats is a point-in-time snapshot of the engine's cross-plan resource
// counters.
type Stats struct {
	// Queries counts the plans executed through the engine since New.
	Queries int64
	// Workers is the shared pool size.
	Workers int
	// Recycler aggregates the session chunk pool's traffic — Reused and
	// SavedBytes are the cross-plan reuse the engine exists for;
	// TrimEvicted counts chunks the pool's byte cap turned away.
	Recycler arena.RecyclerStats
	// Spill aggregates the shared spill manager's activity under
	// Config.MemBudget (zero without a budget).
	Spill spill.Stats
	// Admission snapshots the admission gate: current/peak queue depth,
	// cumulative queue wait time, admitted/rejected plans (zero without
	// Config.MaxPlans).
	Admission admission.Stats
	// StmtCache aggregates every Conn's prepared-statement cache
	// traffic: planning skipped (hits), planning paid (misses), LRU
	// evictions, and statements currently cached.
	StmtCache StmtCacheStats
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Queries:  e.queries.Load(),
		Workers:  e.env.Workers(),
		Recycler: e.env.RecyclerStats(),
		Spill:    e.env.SpillStats(),
		StmtCache: StmtCacheStats{
			Hits:    e.stmtHits.Load(),
			Misses:  e.stmtMisses.Load(),
			Evicted: e.stmtEvicted.Load(),
			Cached:  e.stmtCached.Load(),
		},
	}
	if e.gate != nil {
		st.Admission = e.gate.Stats()
	}
	return st
}

func (s Stats) String() string {
	out := fmt.Sprintf("engine: %d queries on %d workers\n", s.Queries, s.Workers)
	r := s.Recycler
	out += fmt.Sprintf("recycler: %d chunks parked (%s pooled), %d reused (%s of allocation avoided)",
		r.Recycled, spill.FormatBytes(r.PooledBytes), r.Reused, spill.FormatBytes(r.SavedBytes))
	if r.TrimEvicted > 0 {
		out += fmt.Sprintf(", %d trim-evicted (%s)", r.TrimEvicted, spill.FormatBytes(r.TrimEvictedBytes))
	}
	out += "\n"
	if sp := s.Spill; sp.Spills > 0 || sp.Restores > 0 || sp.Resident > 0 {
		out += fmt.Sprintf("spill: %d spills (%s out, %s written), %d restores (%s in), resident %s (peak %s)\n",
			sp.Spills, spill.FormatBytes(sp.SpillBytes), spill.FormatBytes(sp.SpillBytesWritten),
			sp.Restores, spill.FormatBytes(sp.RestoreBytes),
			spill.FormatBytes(sp.Resident), spill.FormatBytes(sp.Peak))
	}
	if ad := s.Admission; ad.MaxPlans > 0 {
		out += fmt.Sprintf("admission: %d/%d plans running, %d queued (peak %d, depth cap %d/session), %d waited %v total, %d rejected\n",
			ad.Running, ad.MaxPlans, ad.Queued, ad.PeakQueued, ad.QueueDepth,
			ad.Waited, ad.WaitTime.Round(time.Millisecond), ad.Rejected)
	}
	if sc := s.StmtCache; sc.Hits > 0 || sc.Misses > 0 {
		out += fmt.Sprintf("stmt cache: %d hits, %d misses, %d evicted, %d cached\n",
			sc.Hits, sc.Misses, sc.Evicted, sc.Cached)
	}
	return out
}

// Close releases the engine's resources (spill files, temp directories).
// In-flight queries are drained first — the shared spill manager must not
// unmap or delete state a running plan still reads — and every later
// query fails with ErrEngineClosed. Results already returned stay valid.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
	return e.env.Close()
}

// checkOpen guards non-executing entry points against use after Close.
func (e *Engine) checkOpen() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	return nil
}

// begin registers one in-flight query; Close waits for its matching end.
// The closed check and the WaitGroup add happen under one lock, so a
// query either sees ErrEngineClosed or is fully drained by Close — never
// races the spill teardown.
func (e *Engine) begin() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.inflight.Add(1)
	return nil
}

func (e *Engine) end() { e.inflight.Done() }

// admit passes one plan through the admission gate for the session,
// blocking in the session's fair queue at the concurrency cap. It
// returns the release the caller must invoke when the plan finishes,
// plus how long the plan queued (set as the run's
// PlanStats.AdmissionWait). Without a gate it is free.
func (e *Engine) admit(ctx context.Context, session uint64) (release func(), wait time.Duration, err error) {
	if e.gate == nil {
		return func() {}, 0, nil
	}
	wait, err = e.gate.Admit(ctx, session)
	if err != nil {
		return nil, 0, err
	}
	return e.gate.Release, wait, nil
}

// Session opens a session against a catalog: the handle queries and
// prepared statements run through. Sessions are lightweight (a planner
// over the catalog plus the engine reference) and safe for concurrent
// use; open as many as there are clients. Each session is its own
// admission-fairness domain: under Config.MaxPlans the gate round-robins
// freed slots across sessions with queued plans.
func (e *Engine) Session(cat *catalog.Catalog) *Session {
	return &Session{eng: e, planner: sql.NewPlanner(cat), id: e.nextSess.Add(1)}
}

// Conn opens a session with a per-connection prepared-statement cache —
// the handle a server gives each client connection. PrepareCached plans
// each distinct SQL text once and serves repeats from an LRU of
// DefaultStmtCacheSize statements; Close releases the cache. Everything
// else behaves exactly like Session.
func (e *Engine) Conn(cat *catalog.Catalog) *Conn {
	s := e.Session(cat)
	s.cache = newStmtCache(e)
	return s
}

// RunPlan executes a hand-built core plan through the engine — the
// non-SQL entry point for embedders that construct operator DAGs
// directly.
// RunPlan callers share one admission-fairness domain (session 0): open
// a Session instead when per-client fairness matters.
func (e *Engine) RunPlan(ctx context.Context, plan *core.Plan, opts ...QueryOption) (*core.IndexedTable, *core.PlanStats, error) {
	if err := e.begin(); err != nil {
		return nil, nil, err
	}
	defer e.end()
	release, wait, err := e.admit(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	e.queries.Add(1)
	out, stats, err := e.env.Run(ctx, plan, execOptions(opts))
	if stats != nil {
		stats.AdmissionWait = wait
	}
	return out, stats, err
}

// execOptions folds the per-query options into the core execution options
// for one run. Joinbuffer size and morsel fan-out run at the core defaults.
func execOptions(opts []QueryOption) core.Options {
	var exec core.Options
	for _, o := range opts {
		o(&exec)
	}
	return exec
}
