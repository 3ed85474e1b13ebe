// Package admission is the engine's front-door flow control: a
// max-concurrent-plans semaphore with a bounded, per-session fair queue
// in front of it.
//
// The gate exists because Engine.RunPlan historically accepted unbounded
// concurrent plans: every client that connected could push the engine
// past its memory budget at once, and a single greedy session could
// starve every other one. The gate bounds both failure modes:
//
//   - At most MaxPlans plans execute concurrently. Later arrivals queue.
//   - Each session owns a FIFO queue bounded at DefaultQueueDepth, and
//     the gate as a whole holds at most MaxPlans×DefaultQueueDepth
//     waiters — so queue memory stays bounded even when every query
//     arrives on its own session (one connection = one session in the
//     wire server). Past either bound, Admit fails fast with
//     ErrOverloaded — backpressure the caller can surface as a typed
//     protocol frame — instead of queueing unbounded memory.
//   - Freed slots are granted round-robin across the sessions that have
//     waiters, FIFO within each session, so a session issuing hundreds
//     of plans cannot starve one issuing a single plan.
//
// Cancelling the Admit context while queued abandons the wait; a grant
// that races the cancellation is re-donated to the next waiter, so slots
// never leak. The gate is small and allocation-light on the admit fast
// path (one mutex, no goroutines of its own).
package admission

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is returned by Admit when the caller's session queue is
// full: the server is past both its concurrency cap and its queue bound,
// and the honest answer is "try again later", not more buffering.
var ErrOverloaded = errors.New("admission: session queue full, server overloaded")

// DefaultQueueDepth bounds each session's wait queue: deep enough to ride
// out a burst the executing plans will absorb in a few slots' time,
// shallow enough that a stalled engine rejects instead of accumulating an
// unbounded backlog.
const DefaultQueueDepth = 16

// Config parameterizes a Gate.
type Config struct {
	// MaxPlans is the number of plans allowed to execute concurrently.
	// Values below 1 are treated as 1 — a gate that admits nothing would
	// deadlock every caller.
	MaxPlans int
}

// A waiter is one queued Admit. The gate hands it a slot by setting
// granted and wait, its queue time, and closing ready; a cancelled waiter
// is spliced out of its session queue, so the ring only ever holds live
// waiters.
type waiter struct {
	ready    chan struct{}
	enqueued time.Time
	wait     time.Duration
	granted  bool
}

// A sessQ is one session's FIFO of waiters.
type sessQ struct {
	id      uint64
	waiters []*waiter
}

// A Gate is the admission controller. It is safe for concurrent use.
type Gate struct {
	maxPlans int

	mu       sync.Mutex
	running  int
	sessions map[uint64]*sessQ
	// ring is the round-robin order of sessions that currently have
	// waiters — the invariant is exact membership: a session is in the
	// ring iff it has at least one queued waiter. Grants pop the front
	// session's first waiter and rotate the session to the back while it
	// still has more.
	ring []*sessQ

	queued     int
	peakQueued int
	admitted   int64
	waited     int64
	rejected   int64
	waitTime   time.Duration
}

// New builds a gate from the configuration.
func New(cfg Config) *Gate {
	if cfg.MaxPlans < 1 {
		cfg.MaxPlans = 1
	}
	return &Gate{
		maxPlans: cfg.MaxPlans,
		sessions: make(map[uint64]*sessQ),
	}
}

// Acquire is Admit without the queue time.
func (g *Gate) Acquire(ctx context.Context, session uint64) error {
	_, err := g.Admit(ctx, session)
	return err
}

// Admit admits one plan for the session, blocking in the session's FIFO
// queue while the gate is at its concurrency cap. It returns how long the
// plan queued — 0 when a slot was free on arrival — and a nil error when
// the plan may run (the caller must Release exactly once), ErrOverloaded
// when the session's queue is full, or ctx.Err() when the context is
// cancelled while queued.
func (g *Gate) Admit(ctx context.Context, session uint64) (time.Duration, error) {
	g.mu.Lock()
	if g.running < g.maxPlans && len(g.ring) == 0 {
		// Fast path: a free slot and nobody queued ahead of us.
		g.running++
		g.admitted++
		g.mu.Unlock()
		return 0, nil
	}
	sq := g.sessions[session]
	if (sq != nil && len(sq.waiters) >= DefaultQueueDepth) || g.queued >= g.maxPlans*DefaultQueueDepth {
		g.rejected++
		g.mu.Unlock()
		return 0, ErrOverloaded
	}
	if sq == nil {
		sq = &sessQ{id: session}
		g.sessions[session] = sq
	}
	if len(sq.waiters) == 0 {
		g.ring = append(g.ring, sq)
	}
	w := &waiter{ready: make(chan struct{}), enqueued: time.Now()}
	sq.waiters = append(sq.waiters, w)
	g.queued++
	if g.queued > g.peakQueued {
		g.peakQueued = g.queued
	}
	g.mu.Unlock()

	select {
	case <-w.ready:
		return w.wait, nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: we own a slot we will not
			// use. Donate it onward under the same lock.
			g.releaseLocked()
			g.mu.Unlock()
			return 0, ctx.Err()
		}
		g.abandonLocked(sq, w)
		g.mu.Unlock()
		return 0, ctx.Err()
	}
}

// abandonLocked splices a cancelled waiter out of its session queue,
// dropping the session from the ring (and the session map) when the
// queue empties.
func (g *Gate) abandonLocked(sq *sessQ, w *waiter) {
	for i, x := range sq.waiters {
		if x == w {
			sq.waiters = append(sq.waiters[:i], sq.waiters[i+1:]...)
			g.queued--
			break
		}
	}
	if len(sq.waiters) > 0 {
		return
	}
	for i, x := range g.ring {
		if x == sq {
			g.ring = append(g.ring[:i], g.ring[i+1:]...)
			break
		}
	}
	delete(g.sessions, sq.id)
}

// Release returns one admitted plan's slot, granting it to the next
// waiter round-robin across sessions (FIFO within a session) when any is
// queued.
func (g *Gate) Release() {
	g.mu.Lock()
	g.releaseLocked()
	g.mu.Unlock()
}

// releaseLocked frees the caller's slot: hand it to the next queued
// waiter if one exists (running stays constant), otherwise decrement
// running. The ring invariant guarantees the front session has a waiter.
func (g *Gate) releaseLocked() {
	if len(g.ring) == 0 {
		g.running--
		return
	}
	sq := g.ring[0]
	w := sq.waiters[0]
	sq.waiters = sq.waiters[1:]
	g.ring = g.ring[1:]
	if len(sq.waiters) > 0 {
		g.ring = append(g.ring, sq)
	} else {
		delete(g.sessions, sq.id)
	}
	w.granted = true
	w.wait = time.Since(w.enqueued)
	g.queued--
	g.admitted++
	g.waited++
	g.waitTime += w.wait
	close(w.ready)
}

// Stats is a point-in-time snapshot of the gate's counters.
type Stats struct {
	// MaxPlans echoes the configuration, QueueDepth the fixed
	// per-session bound (DefaultQueueDepth).
	MaxPlans   int
	QueueDepth int
	// Running is the number of plans currently admitted; Queued the
	// number currently waiting, PeakQueued the high-water mark.
	Running    int
	Queued     int
	PeakQueued int
	// Admitted counts every successful Admit; Waited the subset that
	// queued first, with WaitTime their cumulative queue time. Rejected
	// counts ErrOverloaded answers.
	Admitted int64
	Waited   int64
	Rejected int64
	WaitTime time.Duration
}

// Stats snapshots the gate counters.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		MaxPlans:   g.maxPlans,
		QueueDepth: DefaultQueueDepth,
		Running:    g.running,
		Queued:     g.queued,
		PeakQueued: g.peakQueued,
		Admitted:   g.admitted,
		Waited:     g.waited,
		Rejected:   g.rejected,
		WaitTime:   g.waitTime,
	}
}
