package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMergePartials times the fold that ends a parallel operator: the
// later worker partials' rows re-inserted into the first worker's output
// (foldInto), for 2 and 4 partials and both index structures (KISS for
// narrow keys, prefix tree for wide ones). Only the fold is timed; the
// first partial is rebuilt outside the timer before every fold.
func BenchmarkMergePartials(b *testing.B) {
	const rowsPerPartial = 120000
	for _, cfg := range []struct {
		name string
		bits uint
	}{
		{"kiss24", 24},
		{"pt40", 40},
	} {
		spec := &OutputSpec{
			Name: "bench",
			Key:  SimpleKey("k", cfg.bits),
			Cols: []string{"v"},
			Fold: FoldSum(0),
		}
		rng := rand.New(rand.NewSource(101))
		keys := make([][]uint64, 4)
		rows := make([][][]uint64, 4)
		for p := range keys {
			keys[p] = make([]uint64, rowsPerPartial)
			rows[p] = make([][]uint64, rowsPerPartial)
			for i := range keys[p] {
				keys[p][i] = uint64(rng.Int63()) & keySpaceMax(cfg.bits)
				rows[p][i] = []uint64{uint64(i % 97)}
			}
		}
		build := func(p int) *IndexedTable {
			idx := newOutputIndex(spec, nil)
			idx.InsertBatch(keys[p], rows[p])
			return NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx)
		}
		for _, n := range []int{2, 4} {
			later := make([]*IndexedTable, n-1)
			for p := range later {
				later[p] = build(p + 1)
			}
			b.Run(fmt.Sprintf("%s/partials-%d", cfg.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					first := build(0)
					b.StartTimer()
					if err := foldInto(nil, first.Idx, later); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
