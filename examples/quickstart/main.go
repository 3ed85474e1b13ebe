// Quickstart: the indexed table-at-a-time processing model in ~100 lines.
//
// We load a tiny sales schema, build a partially clustered base index, and
// run one composed operator — a select-join with grouping — that answers
// "revenue by region for electronics orders" without materializing any
// intermediate tuples: the selection's qualifying rows stream straight
// into the join, and the output index groups and sorts as a side effect of
// its construction.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"qppt"
	"qppt/internal/catalog"
	"qppt/internal/core"
)

func main() {
	// 1. Load two relations. Strings get order-preserving dictionary
	// codes, so string predicates become integer key ranges.
	cat := catalog.New()
	products, err := cat.Load("products", []catalog.ColumnData{
		{Name: "pid", Ints: []uint64{1, 2, 3, 4, 5}},
		{Name: "category", Strs: []string{"electronics", "garden", "electronics", "toys", "garden"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	orders, err := cat.Load("orders", []catalog.ColumnData{
		{Name: "pid", Ints: []uint64{1, 2, 3, 1, 4, 3, 5, 1}},
		{Name: "region", Strs: []string{"EU", "EU", "US", "US", "EU", "EU", "US", "EU"}},
		{Name: "revenue", Ints: []uint64{10, 20, 30, 40, 50, 60, 70, 80}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build base indexes: products by category (a selection entry
	// point) and orders by product id (the join entry point), partially
	// clustered with the attributes the query will need.
	byCategory := products.MustIndex([]string{"category"}, "pid")
	byProduct := orders.MustIndex([]string{"pid"}, "region", "revenue")

	// 3. One composed operator: select products by category, probe the
	// orders index per qualifying product, group by region, sum revenue.
	// The output index is keyed on region — grouped and sorted for free.
	sj := &core.SelectJoin{
		SelInput:      &core.Base{Table: byCategory},
		Pred:          core.Point(products.Code("category", "electronics")),
		Main:          &core.Base{Table: byProduct},
		ProbeMainWith: core.Ref{Input: 0, Attr: "pid"},
		Out: core.OutputSpec{
			Name:     "revenue_by_region",
			Key:      core.SimpleKey("region", orders.Bits("region")),
			KeyRefs:  []core.Ref{{Input: 1, Attr: "region"}},
			Cols:     []string{"revenue", "orders"},
			ColExprs: []core.RowExpr{core.Attr(1, "revenue"), core.Computed(func([]uint64) uint64 { return 1 })},
			Fold:     core.FoldSum(0, 1),
		},
	}

	// 4. Execute through an Engine with statistics (the demonstrator's
	// view of a plan). The Engine is what an embedder keeps: its worker
	// pool and chunk pool serve every later plan (see examples/engine).
	eng, err := qppt.New(qppt.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	out, stats, err := eng.RunPlan(context.Background(), &core.Plan{Root: sj}, qppt.WithStats())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("revenue by region for electronics:")
	for _, row := range core.Extract(out).Rows {
		fmt.Printf("  %-4s revenue=%3d orders=%d\n",
			orders.Decode("region", row[0]), row[1], row[2])
	}
	fmt.Println("\noperator statistics:")
	fmt.Print(stats)
}
