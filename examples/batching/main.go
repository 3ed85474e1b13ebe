// batching demonstrates the two substrate-level mechanisms of Sections
// 2.3 and 2.4 directly on the index structures: level-synchronous batch
// processing (Algorithm 1) and sequential duplicate segments (Figure 4).
//
// Run with: go run ./examples/batching [-n 4000000]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"qppt/internal/duplist"
	"qppt/internal/kisstree"
)

var sink uint64

func main() {
	n := flag.Int("n", 4_000_000, "number of keys")
	flag.Parse()

	// ── Batch processing (Section 2.3) ──
	keys := make([]uint64, *n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(*n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	tree := kisstree.MustNew(kisstree.Config{})
	for _, k := range keys {
		tree.Insert(k, nil)
	}
	probes := append([]uint64{}, keys...)
	rng.Shuffle(*n, func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })

	t0 := time.Now()
	for _, k := range probes {
		if lf := tree.Lookup(k); lf != nil {
			sink += lf.Key
		}
	}
	scalar := time.Since(t0)

	t0 = time.Now()
	const batch = 512
	for off := 0; off < len(probes); off += batch {
		end := min(off+batch, len(probes))
		tree.LookupBatch(probes[off:end], func(i int, lf *kisstree.Leaf) {
			if lf != nil {
				sink += lf.Key
			}
		})
	}
	batched := time.Since(t0)

	fmt.Printf("KISS-Tree, %d keys (memory-bound):\n", *n)
	fmt.Printf("  scalar lookups:  %6.1f ns/key\n", float64(scalar.Nanoseconds())/float64(*n))
	fmt.Printf("  batched lookups: %6.1f ns/key  (batch=%d, level-synchronous)\n\n",
		float64(batched.Nanoseconds())/float64(*n), batch)

	// ── Duplicate handling (Section 2.4, Figure 4) ──
	const dups = 500_000
	seg := duplist.New(2)
	row := []uint64{0, 0}
	for i := 0; i < dups; i++ {
		row[0] = uint64(i)
		seg.Append(row)
	}
	t0 = time.Now()
	seg.Scan(func(r []uint64) bool { sink += r[0]; return true })
	segScan := time.Since(t0)

	fmt.Printf("duplicate scan, %d rows of 16 B:\n", dups)
	fmt.Printf("  doubling segments (Fig. 4): %6.2f ns/row, %5.2f MB, %d segments\n",
		float64(segScan.Nanoseconds())/dups, float64(seg.Bytes())/1e6, seg.Segments())
}
