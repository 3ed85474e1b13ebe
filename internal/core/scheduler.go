package core

import (
	"sync"
	"sync/atomic"
)

// Morsel-driven parallelism on a plan-wide shared worker pool.
//
// The paper (Section 7) identifies the prefix tree's deterministic,
// unbalanced shape as the enabler for intra-operator parallelism: a key's
// position in the tree is fixed, so the key space splits into disjoint
// subtrees that workers can process without coordination. The seed
// implementation exploited this in the narrowest possible way — each
// operator statically split its key space into exactly Workers partitions
// and merged the partial outputs sequentially, while independent plan
// branches spawned unbounded extra goroutines.
//
// The Scheduler replaces both mechanisms with one coordinated pool:
//
//   - Inter-operator parallelism: the executor resolves independent plan
//     branches through ForEachWorker, one branch per morsel, so they run
//     on pool workers instead of fresh goroutines.
//   - Intra-operator parallelism: operators split their scans into many
//     small key-range *morsels* (morselsPerWorker × Workers, aligned to
//     prefix-subtree boundaries by partitionBounds) and submit them through
//     ForEachWorker. Idle workers steal the next unclaimed morsel, so a
//     skewed key distribution — where a static split would leave one
//     partition with nearly all the data — keeps every worker busy.
//
// The pool is bounded: across the whole plan, no more than Workers
// goroutines ever execute concurrently (the caller's goroutine counts as
// one; at most Workers−1 helpers exist at any instant). Submitting work
// never blocks — when the pool is saturated, the submitting goroutine runs
// the work inline — so nested ForEachWorker calls cannot deadlock.

// morselsPerWorker is the morsel fan-out factor: each parallel operator
// splits its key space into Workers × morselsPerWorker morsels. More
// morsels mean finer work stealing (better skew resistance) at the cost of
// more per-morsel scan set-up.
const morselsPerWorker = 4

// A Scheduler owns a bounded budget of worker goroutines shared by every
// operator of one plan execution (and, later, by every concurrent plan that
// uses the same Scheduler). The zero-cost way to think about it: the
// calling goroutine is worker zero, and tokens admit up to Workers−1
// helpers.
type Scheduler struct {
	workers int
	tokens  chan struct{}
}

// NewScheduler creates a pool of the given size. Sizes below one are
// clamped to one (serial execution: all work runs on the caller).
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers, tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		s.tokens <- struct{}{}
	}
	return s
}

// Workers reports the pool size.
func (s *Scheduler) Workers() int {
	if s == nil {
		return 1
	}
	return s.workers
}

// parallel reports whether the pool can run anything concurrently.
func (s *Scheduler) parallel() bool { return s != nil && s.workers > 1 }

// acquire reserves one helper slot without blocking; callers fall back to
// running work inline when the pool is saturated.
func (s *Scheduler) acquire() bool {
	select {
	case <-s.tokens:
		return true
	default:
		return false
	}
}

func (s *Scheduler) release() { s.tokens <- struct{}{} }

// ForEachWorker processes n morsels on the pool. Up to Workers loops run
// concurrently; each loop claims the next unclaimed morsel from a shared
// counter, which is what makes the schedule work-stealing: a loop stuck on
// an expensive morsel simply stops claiming, and the idle loops drain the
// rest.
//
// body receives a dense worker slot in [0, Workers()) that is stable for
// the duration of one loop — operators use it to accumulate into private
// per-worker partial outputs without synchronization. The first error
// stops all loops from claiming further morsels and is returned.
func (s *Scheduler) ForEachWorker(n int, body func(worker, morsel int) error) error {
	if n <= 0 {
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, s.Workers())
	loop := func(w int) {
		for !failed.Load() {
			m := int(next.Add(1) - 1)
			if m >= n {
				return
			}
			if err := body(w, m); err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	if s.parallel() {
		for w := 1; w < s.workers && w < n; w++ {
			if !s.acquire() {
				break // pool busy elsewhere: the caller loop absorbs the rest
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer s.release()
				loop(w)
			}(w)
		}
	}
	loop(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
