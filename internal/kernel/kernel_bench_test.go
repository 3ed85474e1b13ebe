package kernel

import "testing"

// BenchmarkRangeStreamKernel measures the fused range-stream predicate
// path exactly as flushForward drives it per batch: clear the mask words,
// one RangeMask pass per predicate range, one MaskSel compaction. The
// scalar sub-benchmark forces the generic oracle so both sides of the
// dispatch seam are timed.
func BenchmarkRangeStreamKernel(b *testing.B) {
	keys := testKeys(512, 7, false)
	mask := make([]uint64, MaskWords(len(keys)))
	sel := make([]uint32, 0, len(keys))
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(mask)
			RangeMask(mask, keys, 1<<10, 1<<18)
			RangeMask(mask, keys, 1<<19, 1<<19+1<<12)
			sel = MaskSel(sel[:0], mask, len(keys))
		}
		if len(sel) == 0 {
			b.Fatal("predicate selected nothing")
		}
	}
	b.Run("kernel", run)
	b.Run("scalar", func(b *testing.B) {
		defer ForceGeneric()()
		run(b)
	})
}

func BenchmarkSortedOr(b *testing.B) {
	keys := testKeys(512, 13, true)
	b.ReportAllocs()
	var or uint64
	for i := 0; i < b.N; i++ {
		_, or = SortedOr(keys)
	}
	_ = or
}

func BenchmarkMinMax(b *testing.B) {
	keys := testKeys(512, 17, true)
	b.ReportAllocs()
	var hi uint64
	for i := 0; i < b.N; i++ {
		_, hi = MinMax(keys)
	}
	_ = hi
}
