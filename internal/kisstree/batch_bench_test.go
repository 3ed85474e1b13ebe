package kisstree

import (
	"math/rand"
	"testing"

	"qppt/internal/arena/arenatest"
)

func kissBenchKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Uint32())
	}
	return keys
}

// BenchmarkKissLookupBatch: batched KISS probes must stay allocation-free
// (pooled compact-pointer scratch).
func BenchmarkKissLookupBatch(b *testing.B) {
	const n = 1 << 17
	keys := kissBenchKeys(n, 61)
	t := MustNew(Config{})
	for _, k := range keys {
		t.Insert(k, nil)
	}
	probes := kissBenchKeys(n, 67)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(probes); off += 512 {
			end := min(off+512, len(probes))
			t.LookupBatch(probes[off:end], func(_ int, lf *Leaf) {
				if lf != nil {
					sink += lf.Key
				}
			})
		}
	}
	_ = sink
}

// BenchmarkKissInsertBatch builds a full KISS index per iteration through
// the batched insert path.
func BenchmarkKissInsertBatch(b *testing.B) {
	const n = 1 << 17
	keys := kissBenchKeys(n, 61)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := MustNew(Config{})
		for off := 0; off < len(keys); off += 512 {
			end := min(off+512, len(keys))
			t.InsertBatch(keys[off:end], nil)
		}
	}
}

// checkBatchAllocationFree builds a tree of 4096 random keys in cfg's node
// layout and fails unless a warmed-up 512-key LookupBatch allocates
// nothing.
func checkBatchAllocationFree(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	if arenatest.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector, so pooled scratch allocates by design")
	}
	keys := kissBenchKeys(1<<12, seed)
	tr := MustNew(cfg)
	for _, k := range keys {
		tr.Insert(k, nil)
	}
	tr.LookupBatch(keys[:512], func(int, *Leaf) {}) // warm the pool
	var sink uint64
	allocs := testing.AllocsPerRun(20, func() {
		tr.LookupBatch(keys[:512], func(_ int, lf *Leaf) {
			if lf != nil {
				sink += lf.Key
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("compress=%v: LookupBatch allocates %.1f objects per batch, want 0", cfg.Compress, allocs)
	}
	_ = sink
}

// TestKissBatchAllocationFree pins the pooled-scratch satellite for the
// KISS-Tree: after warm-up, batched lookups allocate nothing.
func TestKissBatchAllocationFree(t *testing.T) {
	checkBatchAllocationFree(t, Config{}, 61)
}

// TestKissKernelAllocationFree pins the same for the compressed node
// layout. The name is kept from the SWAR descent it used to time.
func TestKissKernelAllocationFree(t *testing.T) {
	checkBatchAllocationFree(t, Config{Compress: true}, 73)
}
