package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMergePartials compares the sequential re-insert merge against
// the parallel partition-wise merge that morsel-driven execution uses,
// across worker counts and both index structures (KISS for narrow keys,
// prefix tree for wide ones). The partition-wise merge should show a
// clear speedup at ≥ 4 workers.
func BenchmarkMergePartials(b *testing.B) {
	const (
		nPartials      = 8
		rowsPerPartial = 120000
	)
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
		partials := make([]*IndexedTable, nPartials)
		for p := range partials {
			idx := newOutputIndex(spec, nil)
			keys := make([]uint64, rowsPerPartial)
			rows := make([][]uint64, rowsPerPartial)
			for i := range keys {
				keys[i] = uint64(rng.Int63()) & keySpaceMax(cfg.bits)
				rows[i] = []uint64{uint64(i % 97)}
			}
			idx.InsertBatch(keys, rows)
			partials[p] = NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx)
		}
		b.Run(cfg.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mergePartials(nil, spec, partials, nil)
			}
		})
		for _, workers := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallel-w%d", cfg.name, workers), func(b *testing.B) {
				ec := &ExecContext{sched: NewScheduler(workers)}
				for i := 0; i < b.N; i++ {
					mergePartialsParallel(ec, spec, partials)
				}
			})
		}
	}
}
