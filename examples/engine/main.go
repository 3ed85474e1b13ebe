// engine demonstrates the long-lived Engine/Session API: one
// qppt.Engine serving many queries from warm resources — a shared worker
// pool, a session-scoped chunk recycler whose pool carries dropped
// intermediate indexes across plans, and one spill budget spanning
// everything in flight — plus context cancellation.
//
// The demo runs the SSB suite twice through one engine and prints the
// engine counters in between: the second pass draws most of its index
// chunks from the pool the first pass filled (nonzero "reused"), which is
// exactly the steady state a server reaches under real traffic. It then
// cancels a query mid-run and shows that the error is context.Canceled.
//
// Run with: go run ./examples/engine [-sf 0.05] [-workers 4]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"qppt"
	"qppt/internal/ssb"
)

func main() {
	sf := flag.Float64("sf", 0.05, "SSB scale factor")
	workers := flag.Int("workers", 4, "engine worker pool size")
	flag.Parse()

	fmt.Printf("loading SSB at SF=%g...\n\n", *sf)
	ds := ssb.MustLoad(ssb.GenConfig{SF: *sf, Seed: 42})

	// 1. One Engine for the whole process. Recycling is always on —
	// cross-plan chunk reuse is most of what a long-lived engine gains —
	// and a memory budget makes cold intermediates spill instead of
	// growing the heap without bound.
	eng, err := qppt.New(qppt.Config{
		Workers:   *workers,
		MemBudget: 512 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// 2. A Session plans SQL against the catalog and runs on the engine.
	sess := eng.Session(ds.Cat)
	ctx := context.Background()

	suite := func(tag string) time.Duration {
		t0 := time.Now()
		for _, qid := range ssb.QueryIDs {
			rows, _, err := sess.Query(ctx, ssb.SQLTexts[qid])
			if err != nil {
				log.Fatalf("Q%s: %v", qid, err)
			}
			_ = rows
		}
		d := time.Since(t0)
		fmt.Printf("%s: 13 queries in %v\n", tag, d.Round(time.Millisecond))
		return d
	}

	// 3. First pass fills the chunk pool; second pass runs out of it.
	suite("cold suite")
	fmt.Print(eng.Stats())
	fmt.Println()
	suite("warm suite")
	st := eng.Stats()
	fmt.Print(st)
	fmt.Printf("\ncross-plan reuse after the warm pass: %d chunk allocations served from the pool\n\n",
		st.Recycler.Reused)

	// 4. Prepared statements pay planning once.
	stmt, err := sess.Prepare(ctx, ssb.SQLTexts["2.3"])
	if err != nil {
		log.Fatal(err)
	}
	rows, stats, err := stmt.Run(ctx, qppt.WithStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared Q2.3: %d rows in %v\n", len(rows.Rows), stats.Total.Round(time.Microsecond))

	// 5. Cancellation: a context cancelled mid-run unwinds the plan and
	// returns context.Canceled — no goroutines, pins or spill files leak.
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(100 * time.Microsecond)
		cancel()
	}()
	_, _, err = sess.Query(cctx, ssb.SQLTexts["4.1"])
	switch {
	case err == nil:
		fmt.Println("cancellation demo: query finished before the cancel landed (tiny dataset)")
	case errors.Is(err, context.Canceled):
		fmt.Println("cancellation demo: query returned context.Canceled, engine still healthy")
	default:
		log.Fatalf("cancellation demo: unexpected error %v", err)
	}

	// The engine survives cancelled queries; prove it with one more run.
	if _, _, err := sess.Query(ctx, ssb.SQLTexts["1.1"]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal engine state:\n%s", eng.Stats())
}
