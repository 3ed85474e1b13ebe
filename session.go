package qppt

import (
	"context"

	"qppt/internal/core"
	"qppt/internal/sql"
)

// A Session is the per-client handle on an Engine: it plans SQL against
// one catalog and runs the plans on the engine's shared resources. It is
// safe for concurrent use. Each session is one admission-fairness domain
// (see Config.MaxPlans); sessions opened with Engine.Conn additionally
// carry a prepared-statement cache.
type Session struct {
	eng     *Engine
	planner *sql.Planner
	id      uint64
	cache   *stmtCache // nil unless opened with Engine.Conn
}

// Conn is a Session: the name database drivers use for the same handle.
type Conn = Session

// Engine returns the engine the session runs on.
func (s *Session) Engine() *Engine { return s.eng }

// ID is the session's admission-fairness identity: the gate round-robins
// freed slots across distinct IDs.
func (s *Session) ID() uint64 { return s.id }

// Close releases the session's prepared-statement cache (no-op for
// sessions without one). The session itself holds no other resources —
// statements already returned stay runnable.
func (s *Session) Close() error {
	if s.cache != nil {
		s.cache.drop()
	}
	return nil
}

// PrepareCached is Prepare through the session's statement cache:
// planning happens once per distinct SQL text and repeats are served
// from the LRU (an Engine.Stats statement-cache hit — how a wire Query
// of a text the connection has run before skips planning). Sessions without a cache (Engine.Session) plan
// every call.
func (s *Session) PrepareCached(ctx context.Context, text string) (*Stmt, error) {
	if s.cache == nil {
		return s.Prepare(ctx, text)
	}
	if st, ok := s.cache.lookup(text); ok {
		return st, nil
	}
	st, err := s.Prepare(ctx, text)
	if err != nil {
		return nil, err
	}
	s.cache.add(text, st)
	return st, nil
}

// Query parses, plans and executes one SQL statement with the given
// options. The returned rows are materialized and fully owned by the
// caller; cancelling ctx unwinds the execution promptly and returns
// ctx.Err().
func (s *Session) Query(ctx context.Context, text string, opts ...QueryOption) (*sql.Rows, *core.PlanStats, error) {
	stmt, err := s.Prepare(ctx, text)
	if err != nil {
		return nil, nil, err
	}
	return stmt.Run(ctx, opts...)
}

// Prepare parses and plans a statement for repeated execution. Planning
// pins the physical plan — including the base indexes it provisions in
// the catalog, which on a cold catalog means full table scans; ctx
// cancels those builds too — so Stmt.Run pays only execution. The plan
// depends on the SQL text alone.
func (s *Session) Prepare(ctx context.Context, text string) (*Stmt, error) {
	if err := s.eng.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stmt, err := s.planner.PlanSQLCtx(ctx, text)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, stmt: stmt}, nil
}

// A Stmt is a prepared statement bound to its session's engine.
type Stmt struct {
	sess *Session
	stmt *sql.Statement
}

// Attrs returns the output attribute names in SELECT-item order.
func (st *Stmt) Attrs() []string { return st.stmt.Attrs }

// Run executes the prepared statement with the given options. Under
// Config.MaxPlans the run first passes the engine's admission gate in its
// session's fair queue; a full queue fails fast with ErrOverloaded, and
// the queue wait is reported as PlanStats.AdmissionWait.
func (st *Stmt) Run(ctx context.Context, opts ...QueryOption) (*sql.Rows, *core.PlanStats, error) {
	eng := st.sess.eng
	if err := eng.begin(); err != nil {
		return nil, nil, err
	}
	defer eng.end()
	release, wait, err := eng.admit(ctx, st.sess.id)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	eng.queries.Add(1)
	rows, stats, err := st.stmt.Run(ctx, eng.env, execOptions(opts))
	if stats != nil {
		stats.AdmissionWait = wait
	}
	return rows, stats, err
}

// A QueryOption overrides one execution knob for a single run. Engine-level
// resources — the worker pool, the chunk pool, the spill budget — are not
// per-query knobs and have no options here, and no option changes a plan.
type QueryOption func(*core.Options)

// WithStats collects per-operator execution statistics for the query.
func WithStats() QueryOption {
	return func(exec *core.Options) { exec.CollectStats = true }
}
