package core

import (
	"context"
	"errors"
	"testing"
)

// TestMergeRangeIntoCancelled: a merge range must poll the query context
// on the abortTickMask cadence and stop folding rows once the query is
// cancelled (regression: mergeRangeInto used to run merges to completion
// into an output nobody would read).
func TestMergeRangeIntoCancelled(t *testing.T) {
	spec := &OutputSpec{Name: "m", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	const rows = 50000
	in := newOutputIndex(spec, nil)
	for i := 0; i < rows; i++ {
		in.Insert(uint64(i), []uint64{1})
	}
	partials := []*IndexedTable{NewIndexedTable(spec.Name, spec.Key, spec.Cols, in)}
	span := keySpaceMax(spec.Key.TotalBits())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := &ExecContext{ctx: ctx}

	out := newOutputIndex(spec, nil)
	if err := mergeRangeInto(ec, out, spec, partials, 0, span); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled merge returned %v, want context.Canceled", err)
	}
	if got := out.Keys(); got >= rows {
		t.Fatalf("cancelled merge still folded all %d rows", got)
	}

	// The serial baseline propagates the same error.
	if _, err := mergePartials(ec, spec, partials, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mergePartials returned %v, want context.Canceled", err)
	}

	// A nil ExecContext stays non-cancellable and merges everything.
	out2 := newOutputIndex(spec, nil)
	if err := mergeRangeInto(nil, out2, spec, partials, 0, span); err != nil {
		t.Fatalf("nil-ec merge returned %v", err)
	}
	if got := out2.Keys(); got != rows {
		t.Fatalf("nil-ec merge folded %d rows, want %d", got, rows)
	}
}
