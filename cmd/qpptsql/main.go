// Command qpptsql is an interactive SQL shell — and, with -listen or
// -serve, a query server — over an in-memory SSB instance, executing
// queries through one long-lived qppt.Engine.
//
// Usage:
//
//	qpptsql [-sf 0.05] [-stats] [-no-select-join]
//	        [-workers N] [-membudget 256MiB]
//	        [-norecycle] [-recyclecap 256MiB]
//	        [-max-plans N] [-queue-depth D] [-stmtcache C]
//	        [-listen :5477] [-serve :8080]
//
// One Engine lives for the whole process: every statement shares its
// worker pool, its session chunk pool (on by default — dropped
// intermediates' chunks stay warm *across* queries; -norecycle turns it
// off, -recyclecap bounds it), and its spill budget
// (-membudget spans concurrent statements; cold intermediates spill to
// temp files and restore on access — results are identical, \stats and
// \engine show the traffic). Byte flags accept plain bytes or K/M/G
// suffixes (powers of 1024).
//
// Meta commands inside the shell:
//
//	\q            quit
//	\ssb <id>     run benchmark query <id> (for example: \ssb 2.3)
//	\tables       list tables and row counts
//	\stats        toggle per-operator statistics
//	\engine       print the engine's cross-query resource counters
//
// Statements may span lines and end with a semicolon.
//
// -listen serves the QPPT binary wire protocol (see internal/wire):
// per-connection sessions with prepared-statement caches, streamed
// row-batch results, out-of-band cancellation, and typed error classes.
// -max-plans/-queue-depth put the engine's admission gate in front of
// every query so overload answers ErrOverloaded instead of piling up.
//
// -serve starts the HTTP adapter — a thin layer over the same wire
// server (each request is one in-process wire connection): GET or POST
// /query with the statement in the q parameter (or the request body)
// returns decoded rows as JSON; /stats returns the engine counters.
// Both flags may be combined; either replaces the shell. This is the
// serving mode the ROADMAP's north star asks for: one warm engine,
// many client connections.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"qppt"
	"qppt/internal/ssb"
	"qppt/internal/wire"
	"qppt/internal/wire/httpd"
)

func main() {
	sf := flag.Float64("sf", 0.05, "SSB scale factor")
	stats := flag.Bool("stats", false, "print per-operator statistics")
	noSJ := flag.Bool("no-select-join", false, "disable composed select-join operators")
	srvFlags := registerServe(flag.CommandLine)
	exec := register(flag.CommandLine)
	flag.Parse()

	cfg, err := exec.engineConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpptsql:", err)
		os.Exit(2)
	}

	fmt.Printf("loading SSB at SF=%g...\n", *sf)
	ds := ssb.MustLoad(ssb.GenConfig{SF: *sf, Seed: 42})
	fmt.Printf("ready: lineorder=%d customer=%d supplier=%d part=%d date=%d rows\n",
		ds.Lineorder.Rows(), ds.Customer.Rows(), ds.Supplier.Rows(), ds.Part.Rows(), ds.Date.Rows())

	eng, err := qppt.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpptsql:", err)
		os.Exit(2)
	}
	defer eng.Close()

	if srvFlags.serving() {
		if err := serveWire(srvFlags, eng, ds, *noSJ); err != nil {
			fmt.Fprintln(os.Stderr, "qpptsql:", err)
			os.Exit(1)
		}
		return
	}

	sess := eng.Session(ds.Cat)
	fmt.Println(`type SQL ending with ';', \q to quit, \ssb <id> for benchmark queries, \engine for pool stats`)
	if err := repl(os.Stdin, os.Stdout, sess, ds, *stats, *noSJ); err != nil {
		fmt.Fprintln(os.Stderr, "qpptsql: reading input:", err)
		eng.Close() // os.Exit skips the deferred Close
		os.Exit(1)
	}
}

// serveWire runs the serving tier: the wire-protocol listener and/or the
// HTTP adapter, both over one wire.Server on the shared engine. It
// returns when either listener fails (ErrServerClosed is clean).
func serveWire(addrs *serveFlags, eng *qppt.Engine, ds *ssb.Dataset, noSJ bool) error {
	srv := wire.NewServer(eng, ds.Cat, queryOptions(false, noSJ)...)
	defer srv.Close()
	errc := make(chan error, 2)
	if addrs.Listen != "" {
		fmt.Printf("serving qppt wire protocol on %s\n", addrs.Listen)
		go func() { errc <- srv.ListenAndServe(addrs.Listen) }()
	}
	if addrs.HTTP != "" {
		fmt.Printf("serving HTTP queries on %s (POST /query, GET /stats)\n", addrs.HTTP)
		go func() { errc <- http.ListenAndServe(addrs.HTTP, httpd.New(srv)) }()
	}
	if err := <-errc; err != nil && !errors.Is(err, wire.ErrServerClosed) {
		return err
	}
	return nil
}

// repl drives the interactive shell over one engine session, reading
// statements from in and writing results to out. It returns nil at \q or
// the end of in, and the read error otherwise — a line longer than the
// 1 MiB line buffer is bufio.ErrTooLong.
func repl(in io.Reader, out io.Writer, sess *qppt.Session, ds *ssb.Dataset, stats, noSJ bool) error {
	showStats := stats
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "qppt> ")
		} else {
			fmt.Fprint(out, "  ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case buf.Len() == 0 && line == `\q`:
			return nil
		case buf.Len() == 0 && line == `\tables`:
			for _, t := range []string{"lineorder", "date", "customer", "supplier", "part"} {
				fmt.Fprintf(out, "  %-10s %9d rows\n", t, ds.Cat.Table(t).Rows())
			}
			prompt()
			continue
		case buf.Len() == 0 && line == `\stats`:
			showStats = !showStats
			fmt.Fprintf(out, "statistics %v\n", map[bool]string{true: "on", false: "off"}[showStats])
			prompt()
			continue
		case buf.Len() == 0 && line == `\engine`:
			fmt.Fprint(out, sess.Engine().Stats())
			prompt()
			continue
		case buf.Len() == 0 && strings.HasPrefix(line, `\ssb `):
			qid := strings.TrimSpace(strings.TrimPrefix(line, `\ssb `))
			text, ok := ssb.SQLTexts[qid]
			if !ok {
				fmt.Fprintf(out, "unknown SSB query %q (valid: %s)\n", qid, strings.Join(ssb.QueryIDs, " "))
				prompt()
				continue
			}
			fmt.Fprintln(out, text)
			run(out, sess, text, showStats, noSJ)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte(' ')
		if strings.HasSuffix(line, ";") {
			run(out, sess, buf.String(), showStats, noSJ)
			buf.Reset()
		}
		prompt()
	}
	return scanner.Err()
}

// queryOptions assembles the per-query options from the shell state.
func queryOptions(stats, noSJ bool) []qppt.QueryOption {
	var opts []qppt.QueryOption
	if stats {
		opts = append(opts, qppt.WithStats())
	}
	if noSJ {
		opts = append(opts, qppt.WithoutSelectJoin())
	}
	return opts
}

func run(out io.Writer, sess *qppt.Session, text string, stats, noSJ bool) {
	rows, planStats, err := sess.Query(context.Background(), text, queryOptions(stats, noSJ)...)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintln(out, strings.Join(rows.Attrs, " | "))
	for i := range rows.Rows {
		if i == 40 {
			fmt.Fprintf(out, "... %d more rows\n", len(rows.Rows)-40)
			break
		}
		cells := make([]string, len(rows.Attrs))
		for c := range rows.Attrs {
			cells[c] = rows.Decode(i, c)
		}
		fmt.Fprintln(out, strings.Join(cells, " | "))
	}
	fmt.Fprintf(out, "(%d rows)\n", len(rows.Rows))
	if stats && planStats != nil {
		fmt.Fprint(out, planStats)
	}
}
