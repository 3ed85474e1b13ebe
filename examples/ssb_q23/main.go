// ssb_q23 walks through the paper's running example: Star Schema
// Benchmark query 2.3 (Figure 5), executed as a QPPT plan.
//
//	select sum(lo_revenue), d_year, p_brand1
//	from lineorder, date, part, supplier
//	where lo_orderdate = d_datekey and lo_partkey = p_partkey
//	  and lo_suppkey = s_suppkey
//	  and p_brand1 = 'MFGR#2221' and s_region = 'EUROPE'
//	group by d_year, p_brand1 order by d_year, p_brand1
//
// The demo mirrors the paper's demonstrator (Appendix A): it plans the
// query's SQL text once — a composed select-join driven by the part
// selection — runs it with two joinbuffer sizes, and prints the
// per-operator execution statistics (time, index vs materialization
// split, output sizes).
//
// Run with: go run ./examples/ssb_q23 [-sf 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"slices"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

func main() {
	sf := flag.Float64("sf", 0.1, "SSB scale factor")
	flag.Parse()

	fmt.Printf("loading SSB at SF=%g...\n", *sf)
	ds := ssb.MustLoad(ssb.GenConfig{SF: *sf, Seed: 42})
	fmt.Printf("lineorder: %d rows\n\n", ds.Lineorder.Rows())

	// One engine serves every configuration below: the second run draws
	// its index chunks from the pool the first run filled.
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	stmt, err := sql.NewPlanner(ds.Cat).PlanSQL(ssb.SQLTexts["2.3"])
	if err != nil {
		log.Fatal(err)
	}

	configs := []struct {
		name string
		exec core.Options
	}{
		{"joinbuffer 512 (default)", core.Options{BufferSize: 512, CollectStats: true}},
		{"joinbuffer 1 (no batching)", core.Options{BufferSize: 1, CollectStats: true}},
	}

	var ref *sql.Rows
	for _, cfg := range configs {
		rows, stats, err := stmt.Run(context.Background(), eng.Env(), cfg.exec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── %s ──\n", cfg.name)
		fmt.Print(stats)
		if ref == nil {
			ref = rows
		} else if !slices.EqualFunc(rows.Rows, ref.Rows, slices.Equal) {
			log.Fatal("the joinbuffer size changed the result!")
		}
		fmt.Println()
	}

	fmt.Printf("result (%d groups, ordered by d_year, p_brand1):\n", len(ref.Rows))
	for i := range ref.Rows {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(ref.Rows)-10)
			break
		}
		fmt.Printf("  d_year=%s p_brand1=%s revenue=%s\n", ref.Decode(i, 1), ref.Decode(i, 2), ref.Decode(i, 0))
	}
}
