package catalog_test

import (
	"os"
	"strconv"
	"testing"

	"qppt/internal/catalog"
	"qppt/internal/ssb"
)

// BenchmarkBuildIndex times the bulk load of the three lineorder indexes
// the SSB star joins read most, each with three included columns (32 B
// rows), at QPPT_BENCH_SF (default 0.1). It reports the build time per
// table row (ns/row) and the built index's footprint per row (B/row,
// Bytes()/Rows()).
func BenchmarkBuildIndex(b *testing.B) {
	sf := 0.1
	if s := os.Getenv("QPPT_BENCH_SF"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0) {
			b.Fatalf("QPPT_BENCH_SF=%q: want a positive scale factor", s)
		}
		sf = v
	}
	data := ssb.Generate(ssb.GenConfig{SF: sf, Seed: 42})
	for _, def := range []catalog.IndexDef{
		{KeyCols: []string{"lo_custkey"}, Include: []string{"lo_orderdate", "lo_revenue", "lo_suppkey"}},
		{KeyCols: []string{"lo_orderdate"}, Include: []string{"lo_discount", "lo_extendedprice", "lo_quantity"}},
		{KeyCols: []string{"lo_partkey"}, Include: []string{"lo_orderdate", "lo_revenue", "lo_suppkey"}},
	} {
		b.Run(def.KeyCols[0], func(b *testing.B) {
			var bytes, rows int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A fresh catalog per build: a table caches its indexes.
				ti, err := catalog.New().Load("lineorder", data.Tables["lineorder"])
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				idx, err := ti.BuildIndex(def)
				if err != nil {
					b.Fatal(err)
				}
				bytes, rows = idx.Idx.Bytes(), idx.Rows()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			b.ReportMetric(float64(bytes)/float64(rows), "B/row")
		})
	}
}
