// Package core exercises the ctxpoll analyzer: functions in executor
// packages that drive scans must poll for cancellation.
package core

import (
	"context"

	"qppt/internal/prefixtree"
)

// ExecContext mirrors the executor's per-query context carrier.
type ExecContext struct{ ctx context.Context }

func (ec *ExecContext) err() error { return ec.ctx.Err() }

// pipeline mirrors the throttled-abort pipeline.
type pipeline struct {
	ctx  context.Context
	tick int
}

func (p *pipeline) aborted() bool {
	p.tick++
	if p.tick&1023 != 0 {
		return false
	}
	return p.ctx.Err() != nil
}

// Flagged: a full-tree iteration with no way to stop it.
func scanNoPoll(t *prefixtree.Tree) int {
	n := 0
	t.Iterate(func(k string) bool { // want `scanNoPoll drives t.Iterate without a cancellation poll`
		n++
		return true
	})
	return n
}

// Flagged: range scans are scans too.
func rangeNoPoll(t *prefixtree.Tree, lo, hi string) int {
	n := 0
	t.Range(lo, hi, func(k string) bool { // want `rangeNoPoll drives t.Range without a cancellation poll`
		n++
		return true
	})
	return n
}

// Flagged: the package-level synchronized sweep.
func syncNoPoll(a, b *prefixtree.Tree) int {
	n := 0
	prefixtree.SyncScan(a, b, func(k string) bool { // want `syncNoPoll drives prefixtree.SyncScan without a cancellation poll`
		n++
		return true
	})
	return n
}

// Clean: polls ctx.Err() inside the visitor.
func scanWithCtx(ctx context.Context, t *prefixtree.Tree) int {
	n := 0
	t.Iterate(func(k string) bool {
		if n&1023 == 0 && ctx.Err() != nil {
			return false
		}
		n++
		return true
	})
	return n
}

// Clean: the throttled pipeline poll counts.
func scanWithAborted(p *pipeline, t *prefixtree.Tree) int {
	n := 0
	t.Iterate(func(k string) bool {
		if p.aborted() {
			return false
		}
		n++
		return true
	})
	return n
}

// Clean: the ExecContext err() check counts.
func scanWithEcErr(ec *ExecContext, t *prefixtree.Tree) int {
	n := 0
	t.Iterate(func(k string) bool {
		if ec.err() != nil {
			return false
		}
		n++
		return true
	})
	return n
}

// Clean: a Done-channel select counts.
func scanWithDone(ctx context.Context, t *prefixtree.Tree) int {
	n := 0
	t.Iterate(func(k string) bool {
		select {
		case <-ctx.Done():
			return false
		default:
		}
		n++
		return true
	})
	return n
}

// Clean: an adapter forwarding its visitor parameter — the polling
// obligation stays with whoever supplies visit.
type treeIndex struct{ t *prefixtree.Tree }

func (ti *treeIndex) Iterate(visit func(k string) bool) {
	ti.t.Iterate(func(k string) bool { return visit(k) })
}

// Clean: forwarding the parameter directly is an adapter too.
func forwardDirect(t *prefixtree.Tree, visit func(k string) bool) {
	t.Iterate(visit)
}

// Flagged: a locally defined visitor is this function's responsibility.
func localVisitor(t *prefixtree.Tree) int {
	n := 0
	count := func(k string) bool {
		n++
		return true
	}
	t.Iterate(count) // want `localVisitor drives t.Iterate without a cancellation poll`
	return n
}

// Suppressed: a bounded per-morsel range the caller polls per claim.
func boundedMorsel(t *prefixtree.Tree, lo, hi string) int {
	n := 0
	//qpptvet:ignore ctxpoll morsel ranges are bounded; the dispatcher polls between claims
	t.Range(lo, hi, func(k string) bool {
		n++
		return true
	})
	return n
}
