// Package arenatest is test support for code that pools arena chunks.
package arenatest

import (
	"sync/atomic"
	"testing"

	"qppt/internal/arena"
)

// CheckZeroHandouts fails t, for the rest of the test, whenever a pool
// hands out a chunk that is not zero over its full capacity: PutChunk
// clears only the prefix an owner wrote (arena's zero invariant), so a
// dirty chunk means some owner wrote beyond the length it handed over.
// Any test that adds or exercises a PutChunk call site should run under
// it. The returned counter is the number of chunks checked so far.
func CheckZeroHandouts(t testing.TB) *atomic.Int64 {
	t.Helper()
	var handed, dirty atomic.Int64
	t.Cleanup(arena.CheckHandouts(func(elem string, at int) {
		handed.Add(1)
		if at >= 0 && dirty.Add(1) <= 5 { // a broken owner dirties every chunk; five reports say it
			t.Errorf("pool handed out a dirty []%s chunk (first non-zero byte at %d)", elem, at)
		}
	}))
	return &handed
}
