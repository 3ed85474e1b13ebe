package core

import (
	"context"
	"errors"
	"testing"
)

// TestMergeRangeIntoCancelled: the partial fold (foldInto) must poll the
// query context on the abortTickMask cadence and stop folding rows once
// the query is cancelled, not run to completion into an output nobody
// will read.
func TestMergeRangeIntoCancelled(t *testing.T) {
	spec := &OutputSpec{Name: "m", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	const rows = 50000
	in := newOutputIndex(spec, nil)
	for i := 0; i < rows; i++ {
		in.Insert(uint64(i), []uint64{1})
	}
	partials := []*IndexedTable{NewIndexedTable(spec.Name, spec.Key, spec.Cols, in)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := &ExecContext{ctx: ctx}

	out := newOutputIndex(spec, nil)
	if err := foldInto(ec, out, partials); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fold returned %v, want context.Canceled", err)
	}
	if got := out.Keys(); got >= rows {
		t.Fatalf("cancelled fold still folded all %d rows", got)
	}

	// A nil ExecContext stays non-cancellable and folds everything.
	out2 := newOutputIndex(spec, nil)
	if err := foldInto(nil, out2, partials); err != nil {
		t.Fatalf("nil-ec fold returned %v", err)
	}
	if got := out2.Keys(); got != rows {
		t.Fatalf("nil-ec fold folded %d rows, want %d", got, rows)
	}
}
