package kisstree

import (
	"reflect"
	"testing"
)

// Range/Iterate edge cases for the compressed-KISS layout (and, as a
// cross-check, the uncompressed one): empty tree, single key, and bounds
// straddling root-chunk boundaries, where the chunk-skipping fast path of
// iterateRange must not jump over populated buckets.

func collectRange(t *Tree, lo, hi uint64) []uint64 {
	var keys []uint64
	t.Range(lo, hi, func(lf *Leaf) bool {
		keys = append(keys, lf.Key)
		return true
	})
	return keys
}

func TestCompressedRangeEdgeCases(t *testing.T) {
	for _, compress := range []bool{true, false} {
		tr := MustNew(Config{Compress: compress})

		// Empty tree: nothing visits, scans complete.
		if got := collectRange(tr, 0, ^uint64(0)>>32); got != nil {
			t.Fatalf("compress=%v: empty tree range visited %v", compress, got)
		}
		if !tr.Iterate(func(*Leaf) bool { t.Fatal("empty Iterate visited"); return false }) {
			t.Fatalf("compress=%v: empty Iterate did not complete", compress)
		}

		// Single key: all window positions relative to it.
		tr.Insert(1<<20, nil)
		single := []struct {
			lo, hi uint64
			want   []uint64
		}{
			{0, 1<<32 - 1, []uint64{1 << 20}},
			{1 << 20, 1 << 20, []uint64{1 << 20}},
			{0, 1<<20 - 1, nil},
			{1<<20 + 1, 1<<32 - 1, nil},
		}
		for _, c := range single {
			if got := collectRange(tr, c.lo, c.hi); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("compress=%v: single-key range [%#x,%#x] = %v, want %v",
					compress, c.lo, c.hi, got, c.want)
			}
		}
	}
}

// TestRangeBoundsBeyondKeySpace: a bound at or past 2^32 is a valid range
// bound (an SQL literal on a 32-bit column), not a key to store. Range
// visits exactly the leaves inside the range instead of panicking.
func TestRangeBoundsBeyondKeySpace(t *testing.T) {
	const top = uint64(1)<<32 - 1
	keys := []uint64{0, 7, 1 << 31, top}
	for _, compress := range []bool{true, false} {
		tr := MustNew(Config{Compress: compress})
		for _, k := range keys {
			tr.Insert(k, nil)
		}
		cases := []struct {
			lo, hi uint64
			want   []uint64
		}{
			{1 << 32, 1 << 32, nil},                 // point just past the key space
			{1 << 40, ^uint64(0), nil},              // both bounds far outside
			{7, 1 << 32, []uint64{7, 1 << 31, top}}, // hi outside: clipped to the largest key
			{0, ^uint64(0), keys},                   // everything
			{top, 1 << 33, []uint64{top}},           // lo at the last key
			{1 << 32, 7, nil},                       // inverted
		}
		for _, c := range cases {
			if got := collectRange(tr, c.lo, c.hi); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("compress=%v: range [%#x,%#x] = %v, want %v", compress, c.lo, c.hi, got, c.want)
			}
		}
	}
}

func TestCompressedRangeAcrossChunkBoundaries(t *testing.T) {
	// A root chunk covers 2^16 root buckets = 2^22 keys. Plant keys just
	// below, at, and just above the first chunk boundary, plus one far
	// away, so the nil-chunk skip (rootIdx |= rootChunkMask) is exercised
	// with populated chunks on both sides of an untouched one.
	const chunkKeys = uint64(1) << (rootChunkBits + leafBits)
	keys := []uint64{
		chunkKeys - 2, chunkKeys - 1, // last buckets of chunk 0
		chunkKeys, chunkKeys + 1, // first buckets of chunk 1
		5 * chunkKeys, // chunk 5; chunks 2-4 untouched
	}
	for _, compress := range []bool{true, false} {
		tr := MustNew(Config{Compress: compress})
		for _, k := range keys {
			tr.Insert(k, nil)
		}
		cases := []struct {
			lo, hi uint64
			want   []uint64
		}{
			// Straddle the chunk 0 / chunk 1 boundary.
			{chunkKeys - 2, chunkKeys + 1, []uint64{chunkKeys - 2, chunkKeys - 1, chunkKeys, chunkKeys + 1}},
			// Clip exactly at the boundary from both sides.
			{0, chunkKeys - 1, []uint64{chunkKeys - 2, chunkKeys - 1}},
			{chunkKeys, 2*chunkKeys - 1, []uint64{chunkKeys, chunkKeys + 1}},
			// Window entirely inside untouched chunks.
			{2 * chunkKeys, 4*chunkKeys - 1, nil},
			// Window spanning the untouched gap to the far key.
			{chunkKeys + 1, 5 * chunkKeys, []uint64{chunkKeys + 1, 5 * chunkKeys}},
			// Everything.
			{0, 1<<32 - 1, keys},
		}
		for _, c := range cases {
			if got := collectRange(tr, c.lo, c.hi); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("compress=%v: range [%#x,%#x] = %v, want %v", compress, c.lo, c.hi, got, c.want)
			}
		}
		var all []uint64
		tr.Iterate(func(lf *Leaf) bool {
			all = append(all, lf.Key)
			return true
		})
		if !reflect.DeepEqual(all, keys) {
			t.Fatalf("compress=%v: Iterate = %v, want %v", compress, all, keys)
		}
	}
}
