package catalog

import (
	"context"
	"math/bits"

	"qppt/internal/key"
)

// The bulk load of a base index. A base table never changes, so its
// indexes are not filled by streaming inserts (the doubling duplicate
// segments of paper §2.4 are for those): the payload rows are sorted on
// their key with a stable LSD radix sort (Polychroniou and Ross, SIGMOD
// 2014) into one flat array, and each key's rows become one contiguous
// run of it, in rid order.

const (
	// digitBits is the radix: each pass sorts on 16 bits of key − min,
	// so a key span below 2^16 (every SSB join column up to SF 0.3)
	// takes one pass.
	digitBits = 16
	digitMask = 1<<digitBits - 1
	// pollRows is how often a pass checks for cancellation.
	pollRows = 8192
)

// inBlocks runs visit over the rows [0, n) in blocks [b, e) of at most
// pollRows rows, checking ctx before each block; it returns ctx's error,
// if any.
func inBlocks(ctx context.Context, n int, visit func(b, e int)) error {
	for b := 0; b < n; b += pollRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		visit(b, min(n, b+pollRows))
	}
	return nil
}

// composeKeys returns every row's index key: the key column itself for a
// one-column key (comp == nil), else the columns composed into one fresh
// array.
func composeKeys(ctx context.Context, keyCols [][]uint64, comp *key.Composer) ([]uint64, error) {
	if comp == nil {
		return keyCols[0], nil
	}
	keys := make([]uint64, len(keyCols[0]))
	fields := make([]uint64, len(keyCols))
	err := inBlocks(ctx, len(keys), func(b, e int) {
		for rid := b; rid < e; rid++ {
			for i, c := range keyCols {
				fields[i] = c[rid]
			}
			keys[rid] = comp.Compose(fields...)
		}
	})
	return keys, err
}

// keySpan returns the smallest and largest of keys.
func keySpan(ctx context.Context, keys []uint64) (lo, hi uint64, err error) {
	lo, hi = keys[0], keys[0]
	err = inBlocks(ctx, len(keys), func(b, e int) {
		for _, k := range keys[b:e] {
			lo, hi = min(lo, k), max(hi, k)
		}
	})
	return lo, hi, err
}

// ridAt is the i-th rid in the order perm gives, nil being rid order.
func ridAt(perm []int, i int) int {
	if perm == nil {
		return i
	}
	return perm[i]
}

// sortRows sorts the table's payload rows — the rid, then the include
// columns inc — on keys (one per rid), stably, so equal keys keep rid
// order. It returns the rows back to back in that order, and the runs they
// form: the distinct keys in ascending order, and where each key's rows
// end (in rows, not words). Each pass sorts on one digit of key − min in
// three steps: count the rows per digit value, prefix-sum the counts into
// offsets, and scatter the rows to their offsets. Passes before the last
// scatter rids only; the last scatters whole rows. Every pass over the
// rows checks ctx every pollRows rows and returns its error.
func sortRows(ctx context.Context, keys []uint64, inc [][]uint64) (runKeys []uint64, ends []int, rows []uint64, err error) {
	n := len(keys)
	if n == 0 {
		return nil, nil, nil, ctx.Err()
	}
	lo, hi, err := keySpan(ctx, keys)
	if err != nil {
		return nil, nil, nil, err
	}
	span := hi - lo
	passes := max(1, (bits.Len64(span)+digitBits-1)/digitBits)
	w := 1 + len(inc)
	var perm, next []int // the rids in the order of the passes so far; nil: rid order
	var offs []int
	for p := 0; p < passes; p++ {
		shift, in := uint(p*digitBits), perm
		offs = make([]int, min(span>>shift, digitMask)+1)
		if err := inBlocks(ctx, n, func(b, e int) {
			for i := b; i < e; i++ {
				offs[(keys[ridAt(in, i)]-lo)>>shift&digitMask]++
			}
		}); err != nil {
			return nil, nil, nil, err
		}
		sum := 0
		for d, c := range offs {
			offs[d], sum = sum, sum+c
		}
		var scatter func(b, e int)
		if p < passes-1 {
			if next == nil {
				next = make([]int, n)
			}
			scatter = func(b, e int) {
				for i := b; i < e; i++ {
					rid := ridAt(in, i)
					d := (keys[rid] - lo) >> shift & digitMask
					next[offs[d]] = rid
					offs[d]++
				}
			}
		} else {
			rows = make([]uint64, n*w)
			out := rows // a local the closure captures by value
			scatter = func(b, e int) {
				for i := b; i < e; i++ {
					rid := ridAt(in, i)
					d := (keys[rid] - lo) >> shift & digitMask
					pos := offs[d] * w
					offs[d]++
					out[pos] = uint64(rid)
					for j, c := range inc {
						out[pos+1+j] = c[rid]
					}
				}
			}
		}
		if err := inBlocks(ctx, n, scatter); err != nil {
			return nil, nil, nil, err
		}
		perm, next = next, perm
	}
	if passes == 1 {
		// The one digit is the whole key − min, and the scatter left each
		// digit's offset at the end of its rows.
		start := 0
		for d, end := range offs {
			if end > start {
				runKeys, ends = append(runKeys, lo+uint64(d)), append(ends, end)
				start = end
			}
		}
		return runKeys, ends, rows, nil
	}
	for i := 0; i < n; i++ {
		if k := keys[rows[i*w]]; i == 0 || k != runKeys[len(runKeys)-1] {
			if i > 0 {
				ends = append(ends, i)
			}
			runKeys = append(runKeys, k)
		}
	}
	return runKeys, append(ends, n), rows, nil
}
