package prefixtree

import (
	"math/rand"
	"slices"
	"testing"

	"qppt/internal/arena/arenatest"
)

// Layout benchmarks: the arena-backed compact-pointer tree on the hot
// batched paths the join operators drive. ReportAllocs makes the
// allocation story part of the regression surface: batched lookups must
// stay allocation-free (pooled scratch) and batched index builds must
// allocate chunks, not per-key objects. Each runs as the sub-benchmark
// "arena".

const benchTreeKeys = 1 << 17

// testBatchSize is the batch the tests and benchmarks insert and look up
// keys by: the paper demonstrator's middle setting.
const testBatchSize = 512

func benchKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

func benchRows(keys []uint64) [][]uint64 {
	backing := make([]uint64, len(keys))
	rows := make([][]uint64, len(keys))
	for i := range keys {
		backing[i] = keys[i]
		rows[i] = backing[i : i+1 : i+1]
	}
	return rows
}

func buildArena(keys []uint64, rows [][]uint64) *Tree {
	t := MustNew(Config{PayloadWidth: 1})
	for off := 0; off < len(keys); off += testBatchSize {
		end := min(off+testBatchSize, len(keys))
		t.InsertBatch(keys[off:end], rows[off:end])
	}
	return t
}

// BenchmarkInsertBatch builds a full index per iteration through the
// batched insert path; bytes/op is the allocation cost of one index
// build.
func BenchmarkInsertBatch(b *testing.B) {
	keys := benchKeys(benchTreeKeys, 101)
	rows := benchRows(keys)
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildArena(keys, rows)
		}
	})
}

// BenchmarkLookupBatch probes a pre-built index with batches of present
// and absent keys; it must report 0 allocs/op (pooled job scratch).
func BenchmarkLookupBatch(b *testing.B) {
	keys := benchKeys(benchTreeKeys, 101)
	rows := benchRows(keys)
	probes := append(append([]uint64{}, keys[:benchTreeKeys/2]...),
		benchKeys(benchTreeKeys/2, 103)...)
	var sink uint64
	b.Run("arena", func(b *testing.B) {
		t := buildArena(keys, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(probes); off += testBatchSize {
				end := min(off+testBatchSize, len(probes))
				t.LookupBatch(probes[off:end], func(_ int, lf *Leaf) {
					if lf != nil {
						sink += lf.Key
					}
				})
			}
		}
	})
	_ = sink
}

// TestLookupBatchAllocationFree pins the pooled-scratch satellite: after
// warm-up, batched lookups on the arena tree allocate nothing.
func TestLookupBatchAllocationFree(t *testing.T) {
	if arenatest.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector, so pooled scratch allocates by design")
	}
	keys := benchKeys(1<<12, 101)
	checkBatchAllocationFree(t, buildArena(keys, benchRows(keys)), keys[:testBatchSize])
}

// TestLookupBatchKernelAllocationFree pins the same for a sorted probe
// batch, the order the join operators feed. The name is kept from the
// SWAR descent it used to time.
func TestLookupBatchKernelAllocationFree(t *testing.T) {
	if arenatest.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector, so pooled scratch allocates by design")
	}
	keys := benchKeys(1<<12, 103)
	batch := slices.Clone(keys[:testBatchSize])
	slices.Sort(batch)
	checkBatchAllocationFree(t, buildArena(keys, benchRows(keys)), batch)
}

func checkBatchAllocationFree(t *testing.T, tr *Tree, batch []uint64) {
	t.Helper()
	tr.LookupBatch(batch, func(int, *Leaf) {}) // warm the pool
	var sink uint64
	allocs := testing.AllocsPerRun(20, func() {
		tr.LookupBatch(batch, func(_ int, lf *Leaf) {
			if lf != nil {
				sink += lf.Key
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("LookupBatch allocates %.1f objects per batch, want 0", allocs)
	}
	_ = sink
}
