package prefixtree

import (
	"math/rand"
	"slices"
	"testing"

	"qppt/internal/kernel"
)

// collect runs a batch-lookup func and records the visit sequence as
// (index, leaf-pointer) pairs so two descent strategies can be compared
// for bit-identity, including visit order.
func collect(lookup func([]uint64, func(int, *Leaf)), keys []uint64) []struct {
	i  int
	lf *Leaf
} {
	var got []struct {
		i  int
		lf *Leaf
	}
	lookup(keys, func(i int, lf *Leaf) {
		got = append(got, struct {
			i  int
			lf *Leaf
		}{i, lf})
	})
	return got
}

func diffLookup(t *testing.T, tr *Tree, batch []uint64, label string) {
	t.Helper()
	ker := collect(tr.lookupBatchKernel, batch)
	sca := collect(tr.lookupBatchScalar, batch)
	if len(ker) != len(sca) {
		t.Fatalf("%s: kernel visited %d, scalar %d", label, len(ker), len(sca))
	}
	for i := range ker {
		if ker[i] != sca[i] {
			t.Fatalf("%s: visit %d differs: kernel (%d,%p) scalar (%d,%p)",
				label, i, ker[i].i, ker[i].lf, sca[i].i, sca[i].lf)
		}
	}
}

func TestLookupBatchKernelMatchesScalar(t *testing.T) {
	cfgs := []Config{
		{},                           // 64-bit keys, k'=4
		{PrefixLen: 6},               // 64-bit keys, uneven last level (64%6 != 0)
		{KeyBits: 20, PrefixLen: 8},  // narrow keys, uneven last level
		{KeyBits: 32, PrefixLen: 16}, // widest buckets
		{KeyBits: 1, PrefixLen: 1},   // degenerate single-bit tree
		{PayloadWidth: 2, PrefixLen: 5},
	}
	for _, cfg := range cfgs {
		tr := MustNew(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.PrefixLen)*64 + int64(cfg.KeyBits)))
		keyMask := ^uint64(0)
		if kb := cfg.KeyBits; kb != 0 && kb < 64 {
			keyMask = 1<<kb - 1
		}
		present := make([]uint64, 300)
		for i := range present {
			present[i] = rng.Uint64() & keyMask
		}
		var rows [][]uint64
		if cfg.PayloadWidth > 0 {
			rows = make([][]uint64, len(present))
			for i := range rows {
				rows[i] = make([]uint64, cfg.PayloadWidth)
			}
		}
		tr.InsertBatch(present, rows)

		batch := make([]uint64, 0, 700)
		batch = append(batch, present...)      // hits
		batch = append(batch, present[:50]...) // duplicates
		for i := 0; i < 300; i++ {             // mostly misses
			batch = append(batch, rng.Uint64()&keyMask)
		}
		diffLookup(t, tr, batch, "mixed")
		diffLookup(t, tr, batch[:0], "empty")
		diffLookup(t, tr, batch[len(present):len(present)+50], "all-dup")

		miss := make([]uint64, 64)
		for i := range miss {
			miss[i] = rng.Uint64() & keyMask
		}
		diffLookup(t, tr, miss, "all-miss-ish")
	}
}

// FuzzKernelVsScalar is the differential fuzz over the two descent
// strategies: random key widths (including full 64-bit keys), random
// prefix lengths, empty / all-miss / duplicate-heavy batches. The scalar
// job loop is the oracle; any divergence in hit set, leaf identity, or
// visit order is a bug.
func FuzzKernelVsScalar(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(64), uint8(4), uint8(50))
	f.Add(int64(2), uint16(0), uint8(64), uint8(4), uint8(0))    // empty batch
	f.Add(int64(3), uint16(100), uint8(64), uint8(6), uint8(0))  // all-miss
	f.Add(int64(4), uint16(64), uint8(20), uint8(8), uint8(100)) // all-hit, narrow keys
	f.Add(int64(5), uint16(33), uint8(32), uint8(16), uint8(80)) // widest buckets
	f.Add(int64(6), uint16(17), uint8(1), uint8(1), uint8(100))  // single-bit keyspace
	f.Fuzz(func(t *testing.T, seed int64, n uint16, keyBits, prefixLen, hitPct uint8) {
		cfg := Config{KeyBits: uint(keyBits%64) + 1, PrefixLen: uint(prefixLen%16) + 1}
		tr := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		keyMask := ^uint64(0)
		if cfg.KeyBits < 64 {
			keyMask = 1<<cfg.KeyBits - 1
		}
		present := make([]uint64, 128)
		for i := range present {
			present[i] = rng.Uint64() & keyMask
		}
		tr.InsertBatch(present, nil)
		batch := make([]uint64, int(n)%1024)
		for i := range batch {
			if uint8(rng.Intn(100)) < hitPct {
				batch[i] = present[rng.Intn(len(present))]
			} else {
				batch[i] = rng.Uint64() & keyMask
			}
		}
		diffLookup(t, tr, batch, "fuzz")
	})
}

// TestLookupBatchKernelAllocationFree mirrors TestLookupBatchAllocationFree
// for the kernel descent: after warm-up, the pooled parallel arrays make
// the SWAR path allocate nothing per batch.
func TestLookupBatchKernelAllocationFree(t *testing.T) {
	if kernel.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector, so pooled scratch allocates by design")
	}
	keys := benchKeys(1<<12, 103)
	tr := buildArena(keys, benchRows(keys))
	tr.lookupBatchKernel(keys[:DefaultBatchSize], func(int, *Leaf) {}) // warm the pool
	var sink uint64
	allocs := testing.AllocsPerRun(20, func() {
		tr.lookupBatchKernel(keys[:DefaultBatchSize], func(_ int, lf *Leaf) {
			if lf != nil {
				sink += lf.Key
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("lookupBatchKernel allocates %.1f objects per batch, want 0", allocs)
	}
	_ = sink
}

// BenchmarkProbeKernel compares the two descent strategies behind
// LookupBatch on the same sorted probe batch: the SWAR level-synchronous
// kernel vs the scalar job loop (forced via the dispatch switch, exactly
// how -nokernel and the scalar ablation leg run it).
func BenchmarkProbeKernel(b *testing.B) {
	keys := benchKeys(1<<16, 107)
	tr := buildArena(keys, benchRows(keys))
	batch := append([]uint64(nil), keys[:DefaultBatchSize]...)
	slices.Sort(batch)
	run := func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		tr.LookupBatch(batch, func(int, *Leaf) {}) // warm pools
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits = 0
			tr.LookupBatch(batch, func(_ int, lf *Leaf) {
				if lf != nil {
					hits++
				}
			})
		}
		if hits != len(batch) {
			b.Fatalf("resolved %d of %d", hits, len(batch))
		}
	}
	b.Run("kernel", run)
	b.Run("scalar", func(b *testing.B) {
		defer kernel.ForceGeneric()()
		run(b)
	})
}
