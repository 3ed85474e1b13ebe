package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitQueued polls until the gate reports n queued waiters — the only
// way to order concurrent Acquire calls deterministically from outside.
func waitQueued(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.Stats().Queued == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("gate never reached %d queued waiters (stats %+v)", n, g.Stats())
}

// TestGateFastPath: an uncontended gate admits immediately and Release
// returns the slot.
func TestGateFastPath(t *testing.T) {
	g := New(Config{MaxPlans: 2})
	for i := 0; i < 10; i++ {
		if err := g.Acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	st := g.Stats()
	if st.Admitted != 10 || st.Waited != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats after uncontended traffic: %+v", st)
	}
}

// TestGateRoundRobinFairness: three sessions enqueue three plans each,
// in session-batched order (A A A B B B C C C). Grants must interleave
// round-robin across sessions, FIFO within each: A1 B1 C1 A2 B2 C2 A3
// B3 C3 — not the session-batched arrival order.
func TestGateRoundRobinFairness(t *testing.T) {
	g := New(Config{MaxPlans: 1})
	if err := g.Acquire(context.Background(), 99); err != nil { // occupy the only slot
		t.Fatal(err)
	}

	order := make(chan string, 9)
	var wg sync.WaitGroup
	queued := 0
	for _, sess := range []uint64{1, 2, 3} {
		for i := 1; i <= 3; i++ {
			wg.Add(1)
			label := fmt.Sprintf("%c%d", 'A'+rune(sess-1), i)
			go func(sess uint64, label string) {
				defer wg.Done()
				if err := g.Acquire(context.Background(), sess); err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				order <- label
				g.Release()
			}(sess, label)
			queued++
			waitQueued(t, g, queued) // pin the enqueue order
		}
	}

	g.Release() // free the slot; grants cascade one Release at a time
	wg.Wait()
	close(order)
	var got []string
	for l := range order {
		got = append(got, l)
	}
	want := []string{"A1", "B1", "C1", "A2", "B2", "C2", "A3", "B3", "C3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want round-robin %v", got, want)
		}
	}
	st := g.Stats()
	if st.Waited != 9 || st.WaitTime <= 0 {
		t.Errorf("stats recorded %d waiters / %v wait time, want 9 / > 0", st.Waited, st.WaitTime)
	}
	if st.PeakQueued != 9 {
		t.Errorf("peak queue depth %d, want 9", st.PeakQueued)
	}
}

// TestGateOverload: a session past DefaultQueueDepth queued plans is
// rejected with ErrOverloaded — fast, without queueing.
func TestGateOverload(t *testing.T) {
	g := New(Config{MaxPlans: 2}) // global bound 2×DefaultQueueDepth stays clear
	if err := g.Acquire(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < DefaultQueueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background(), 7); err != nil {
				t.Error(err)
				return
			}
			g.Release()
		}()
		waitQueued(t, g, i+1)
	}
	if err := g.Acquire(context.Background(), 7); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire past the session's queue depth returned %v, want ErrOverloaded", err)
	}
	// A different session still has queue room: the bound is per session.
	done := make(chan error, 1)
	go func() {
		err := g.Acquire(context.Background(), 8)
		if err == nil {
			g.Release()
		}
		done <- err
	}()
	waitQueued(t, g, DefaultQueueDepth+1)
	g.Release()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("other session's acquire failed: %v", err)
	}
	if st := g.Stats(); st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
}

// TestGateGlobalBound: total waiters are bounded at MaxPlans×DefaultQueueDepth
// even when every waiter arrives on its own session — the wire server's
// shape, where one connection is one session with at most one query in
// flight, so the per-session bound alone could never shed load.
func TestGateGlobalBound(t *testing.T) {
	g := New(Config{MaxPlans: 1}) // global bound: DefaultQueueDepth waiters
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < DefaultQueueDepth; i++ {
		wg.Add(1)
		go func(sess uint64) {
			defer wg.Done()
			if err := g.Acquire(context.Background(), sess); err != nil {
				t.Error(err)
				return
			}
			g.Release()
		}(uint64(2 + i))
		waitQueued(t, g, i+1)
	}
	if err := g.Acquire(context.Background(), 1000); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire past the global bound returned %v, want ErrOverloaded", err)
	}
	g.Release()
	wg.Wait()
	if st := g.Stats(); st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
}

// TestGateCancelWhileQueued: cancelling a queued Acquire abandons the
// wait, removes the waiter from the queue, and never leaks the slot.
func TestGateCancelWhileQueued(t *testing.T) {
	g := New(Config{MaxPlans: 1})
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, 2) }()
	waitQueued(t, g, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	if st := g.Stats(); st.Queued != 0 {
		t.Fatalf("abandoned waiter still counted: %+v", st)
	}
	g.Release()
	// The slot must be free again.
	if err := g.Acquire(context.Background(), 3); err != nil {
		t.Fatalf("acquire after abandon: %v", err)
	}
	g.Release()
}

// TestGateCancelGrantRace: hammer grant-vs-cancel timing; whatever the
// interleaving, slots must neither leak nor double-free (the gate keeps
// admitting at full capacity afterwards).
func TestGateCancelGrantRace(t *testing.T) {
	g := New(Config{MaxPlans: 2})
	for round := 0; round < 200; round++ {
		if err := g.Acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- g.Acquire(ctx, 2) }()
		// Release and cancel race: the waiter either gets the slot (and
		// must then own it) or context.Canceled (and the donated slot
		// must stay available).
		go g.Release()
		cancel()
		if err := <-done; err == nil {
			g.Release()
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: %v", round, err)
		}
		// Drain to idle: the full capacity must be acquirable.
		for i := 0; i < 2; i++ {
			if err := g.Acquire(context.Background(), 9); err != nil {
				t.Fatalf("round %d: capacity leaked: %v", round, err)
			}
		}
		g.Release()
		g.Release()
	}
}

// TestGateConcurrencyBound: under a storm of concurrent plans from many
// sessions, the number running simultaneously never exceeds MaxPlans and
// every admit is eventually served.
func TestGateConcurrencyBound(t *testing.T) {
	const maxPlans = 3
	g := New(Config{MaxPlans: maxPlans})
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(sess uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := g.Acquire(context.Background(), sess); err != nil {
					t.Error(err)
					return
				}
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				running.Add(-1)
				g.Release()
			}
		}(uint64(c % 5))
	}
	wg.Wait()
	if p := peak.Load(); p > maxPlans {
		t.Errorf("observed %d concurrent plans, cap is %d", p, maxPlans)
	}
	st := g.Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("gate not idle after drain: %+v", st)
	}
	if st.Admitted != 16*50 {
		t.Errorf("admitted %d, want %d", st.Admitted, 16*50)
	}
}
