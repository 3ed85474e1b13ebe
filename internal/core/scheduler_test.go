package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerBoundsConcurrency: however deeply ForEachWorker loops nest,
// the number of concurrently executing bodies must never exceed the pool
// size — the property that replaces the seed's Workers ×
// concurrent-operators goroutine blowup.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers = 4
	s := NewScheduler(workers)
	var cur, peak atomic.Int64
	body := func() {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
	}
	// Three "plan branches" resolved by an outer loop, each running a
	// morsel loop — the shape of a star-join plan with three dimension
	// selections.
	branch := func(_, _ int) error {
		return s.ForEachWorker(32, func(_, _ int) error {
			body()
			return nil
		})
	}
	if err := s.ForEachWorker(3, branch); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, workers)
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("peak concurrency %d: pool never ran anything in parallel", got)
	}
}

// TestForEachWorkerCoversAllMorsels: every morsel is processed exactly
// once and worker slots stay dense and in range.
func TestForEachWorkerCoversAllMorsels(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		s := NewScheduler(workers)
		const n = 100
		var mu sync.Mutex
		seen := make([]int, n)
		err := s.ForEachWorker(n, func(w, m int) error {
			if w < 0 || w >= workers {
				t.Errorf("worker slot %d out of range [0,%d)", w, workers)
			}
			mu.Lock()
			seen[m]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for m, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: morsel %d processed %d times", workers, m, c)
			}
		}
	}
}

// TestForEachWorkerStealsFromStragglers: a worker stuck on one expensive
// morsel must not stall the rest — idle workers steal the remaining
// morsels. This is the skew scenario that breaks static partitioning:
// there, the worker owning the dense partition does all the work alone.
func TestForEachWorkerStealsFromStragglers(t *testing.T) {
	s := NewScheduler(2)
	const n = 64
	var mu sync.Mutex
	byWorker := map[int]int{}
	heavyWorker := -1
	err := s.ForEachWorker(n, func(w, m int) error {
		if m == 0 {
			// The "dense subtree" morsel: expensive enough that the other
			// worker drains everything else meanwhile.
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			heavyWorker = w
			mu.Unlock()
		}
		mu.Lock()
		byWorker[w]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range byWorker {
		total += c
	}
	if total != n {
		t.Fatalf("processed %d morsels, want %d", total, n)
	}
	// The worker that got stuck on the heavy morsel cannot have processed
	// the bulk: the other worker must have stolen it.
	if c := byWorker[heavyWorker]; c > n/2 {
		t.Fatalf("straggler worker processed %d of %d morsels; stealing did not engage", c, n)
	}
}

func TestSchedulerErrorPropagation(t *testing.T) {
	s := NewScheduler(3)
	boom := errors.New("boom")
	// The error of one plan branch among three surfaces, with or without
	// nesting.
	if err := s.ForEachWorker(3, func(_, i int) error {
		if i == 1 {
			return boom
		}
		return s.ForEachWorker(8, func(_, _ int) error { return nil })
	}); !errors.Is(err, boom) {
		t.Fatalf("branch error = %v, want boom", err)
	}
	var ran atomic.Int64
	err := s.ForEachWorker(1000, func(_, m int) error {
		ran.Add(1)
		if m == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ForEachWorker error = %v, want boom", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("error did not stop morsel claiming")
	}
}

// TestForEachWorkerSaturatedPoolRunsInline: once the pool has no free
// workers, ForEachWorker must still make progress on the calling goroutine
// instead of blocking — the property that makes nested parallelism
// deadlock-free.
func TestForEachWorkerSaturatedPoolRunsInline(t *testing.T) {
	s := NewScheduler(2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Occupy the single helper slot.
	ok := s.acquire()
	if !ok {
		t.Fatal("fresh pool has no helper slot")
	}
	go func() {
		defer wg.Done()
		<-release
		s.release()
	}()
	done := make(chan error, 1)
	var inline atomic.Int64
	go func() {
		done <- s.ForEachWorker(3, func(w, _ int) error {
			if w == 0 {
				inline.Add(1)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEachWorker blocked on a saturated pool")
	}
	if n := inline.Load(); n != 3 {
		t.Fatalf("calling goroutine ran %d of 3 morsels on a saturated pool", n)
	}
	close(release)
	wg.Wait()
}
