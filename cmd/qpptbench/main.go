// Command qpptbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	qpptbench -fig 3a|3b|7|8|9|joinbuffer|workers|kprime|compression|batch|memlife|fusion|probe|kernel|all
//	          [-sf 0.5] [-reps 3] [-sizes 1000000,4000000,16000000]
//	          [-workers N] [-membudget 256MiB]
//	          [-norecycle] [-recyclecap 256MiB] [-nofuse] [-nokernel]
//	          [-max-plans N] [-queue-depth D] [-stmtcache C]
//	          [-benchjson BENCH_qppt.json] [-benchlabel PR-5]
//
// The engine flags are the ones cmd/qpptsql takes (internal/cliflags):
// the QPPT rows of figures 7, 8 and 9 run on one qppt.Engine configured
// from them, exactly as a server's queries would (-max-plans, -queue-depth
// and -stmtcache are accepted for that symmetry; nothing here queues or
// prepares).
//
// -benchjson appends a machine-readable perf snapshot (per-query ms, the
// memory-lifecycle ablation) to the snapshot history in the given file,
// so the perf trajectory accumulates across PRs; -benchlabel names the
// snapshot. A pre-history file holding a single snapshot object is
// absorbed as the first history entry, and older snapshots are carried
// over byte for byte, including fields this version no longer writes.
//
// -membudget runs the figure-7 QPPT rows a second time on an engine with
// that intermediate-index memory budget (index spilling enabled) and
// records them with a membudget= config label — the spill-enabled
// configuration of the perf trajectory. Accepts plain bytes or K/M/G
// suffixes. -norecycle turns the chunk recycler off for the QPPT engine
// rows (recorded in the config labels); -fig memlife runs the dedicated
// memory-lifecycle ablation (allocs, GC pause, thaw bytes read) across
// those configurations; -fig fusion compares fused and materialized
// execution of the suite on the decomposed plans (fused-edge counts,
// streamed combinations, and a bit-identity check per query); -fig probe
// isolates the batched probe forwarding inside fused chains (batched vs
// scalar vs materialized, with batch counts and average fill); -fig
// kernel isolates the SWAR batch kernels inside the batched pipeline
// (kernel vs scalar fallback vs materialized, with descent-strategy
// counts and a three-way bit-identity check). -nofuse turns pipeline
// fusion off for every other figure's QPPT rows; -nokernel forces the
// scalar kernel fallback everywhere.
//
// -workers > 1 runs the QPPT engine rows of figures 7, 8 and 9 on a
// shared worker pool of that size (morsel-driven parallelism). The
// baselines always run single-threaded, and the ablations control their
// own configuration (the workers ablation sweeps the pool size itself).
//
// Absolute numbers will differ from the paper's C/C++ system; the point
// is to reproduce the shapes: who wins, by roughly what factor, and where
// the crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qppt"
	"qppt/internal/bench"
	"qppt/internal/cliflags"
	"qppt/internal/core"
	"qppt/internal/spill"
	"qppt/internal/ssb"
)

// benchSnapshot is one perf record. -benchjson appends it to the snapshot
// history so per-PR records accumulate into a perf trajectory.
type benchSnapshot struct {
	Label     string            `json:"label,omitempty"`
	When      string            `json:"when,omitempty"`
	SF        float64           `json:"sf"`
	Workers   int               `json:"workers"`
	GoMaxP    int               `json:"gomaxprocs"`
	MemBudget int64             `json:"membudget,omitempty"`
	Queries   []bench.QueryTime `json:"queries,omitempty"`
	// Layout is the retired arena-vs-pointer ablation; never written, read
	// only to recognize a pre-history file that recorded nothing else.
	Layout  json.RawMessage    `json:"layout,omitempty"`
	MemLife []bench.MemLifeRow `json:"memlife,omitempty"`
	Fusion  []bench.FusionRow  `json:"fusion,omitempty"`
	Probe   []bench.ProbeRow   `json:"probe,omitempty"`
	Kernel  []bench.KernelRow  `json:"kernel,omitempty"`
}

// benchHistory is the BENCH_qppt.json layout: snapshots in append order.
// Recorded snapshots stay raw: rewriting them through benchSnapshot would
// drop every field a later version stopped writing (recycle, serve).
type benchHistory struct {
	Snapshots []json.RawMessage `json:"snapshots"`
}

// appendSnapshot loads the history at path (absorbing a legacy single-
// snapshot file), appends snap, and writes it back. An existing file that
// cannot be read or parsed is an error — silently replacing it would
// discard the accumulated perf trajectory.
func appendSnapshot(path string, snap benchSnapshot) error {
	var hist benchHistory
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// First snapshot: start a fresh history.
	case err != nil:
		return fmt.Errorf("read %s: %w", path, err)
	default:
		if jerr := json.Unmarshal(data, &hist); jerr != nil || len(hist.Snapshots) == 0 {
			var legacy benchSnapshot
			if jerr2 := json.Unmarshal(data, &legacy); jerr2 == nil && (legacy.Queries != nil || len(legacy.Layout) > 0) {
				hist.Snapshots = []json.RawMessage{data}
			} else if jerr != nil {
				return fmt.Errorf("parse %s (refusing to overwrite history): %w", path, jerr)
			}
		}
	}
	raw, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	hist.Snapshots = append(hist.Snapshots, raw)
	out, err := json.MarshalIndent(&hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 7, 8, 9, joinbuffer, workers, kprime, compression, batch, memlife, fusion, probe, kernel, all")
	sf := flag.Float64("sf", 0.5, "SSB scale factor for figures 7-9 (the paper uses 15)")
	reps := flag.Int("reps", 3, "repetitions per query timing (best-of)")
	sizesFlag := flag.String("sizes", "1000000,4000000,16000000", "index sizes for figure 3")
	seed := flag.Int64("seed", 42, "data generator seed")
	execFlags := cliflags.Register(flag.CommandLine)
	benchjson := flag.String("benchjson", "", "append a JSON perf snapshot (query times, memory-lifecycle ablation) to the history in this file")
	benchlabel := flag.String("benchlabel", "", "label for the appended perf snapshot (e.g. the PR number)")
	flag.Parse()
	execFlags.ApplyRuntime()
	cfg, err := execFlags.EngineConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad flags: %v\n", err)
		os.Exit(2)
	}
	// The unbudgeted figure rows run without spilling; the -membudget
	// configuration is timed as its own row set where a figure asks for it.
	budget := cfg.MemBudget
	cfg.MemBudget = 0
	eng, err := qppt.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	env, exec := eng.Env(), core.Options{NoFuse: cfg.DisableFusion}
	snap := benchSnapshot{
		Label: *benchlabel, When: time.Now().UTC().Format(time.RFC3339),
		SF: *sf, Workers: cfg.Workers, GoMaxP: runtime.GOMAXPROCS(0), MemBudget: budget,
	}

	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -sizes entry %q: %v\n", s, err)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}

	// -fig accepts a single figure name, "all", or a comma-separated list
	// (e.g. -fig 7,layout for one perf snapshot covering both).
	wants := func(name string) bool {
		for _, f := range strings.Split(*fig, ",") {
			if f = strings.TrimSpace(f); f == "all" || f == name {
				return true
			}
		}
		return false
	}
	var ds *ssb.Dataset
	dataset := func() *ssb.Dataset {
		if ds == nil {
			fmt.Printf("loading SSB SF=%g (seed %d)...\n", *sf, *seed)
			ds = ssb.MustLoad(ssb.GenConfig{SF: *sf, Seed: *seed})
			if err := bench.WarmupQueries(ds, env); err != nil {
				fatal(err)
			}
			fmt.Printf("loaded: %d lineorder rows\n\n", ds.Lineorder.Rows())
		}
		return ds
	}

	if wants("3a") {
		fmt.Println("=== Figure 3(a): insert/update performance [ns/key] ===")
		printFig3(bench.Figure3a(sizes))
	}
	if wants("3b") {
		fmt.Println("=== Figure 3(b): lookup performance [ns/key] ===")
		printFig3(bench.Figure3b(sizes))
	}
	if wants("7") {
		fmt.Printf("=== Figure 7: SSB query performance, SF=%g [ms] ===\n", *sf)
		rows, err := bench.Figure7(dataset(), *reps, env, exec)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
		snap.Queries = append(snap.Queries, rows...)
		if budget > 0 {
			fmt.Printf("=== Figure 7 (QPPT rows) under -membudget %s (index spilling) [ms] ===\n", execFlags.MemBudget)
			spillCfg := cfg
			spillCfg.MemBudget = budget
			cfgLabel := fmt.Sprintf("membudget=%s", execFlags.MemBudget)
			if cfg.DisableRecycle {
				cfgLabel += ",norecycle"
			}
			spillEng, err := qppt.New(spillCfg)
			if err != nil {
				fatal(err)
			}
			srows, err := bench.QPPTTimes(dataset(), *reps, spillEng.Env(), exec, cfgLabel)
			if cerr := spillEng.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			printQueryTimes(srows)
			snap.Queries = append(snap.Queries, srows...)
		}
	}
	if wants("8") {
		fmt.Println("=== Figure 8: SSB Q1.1 with and without select-join [ms] ===")
		rows, err := bench.Figure8(dataset(), *reps, env, exec)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
		share, err := bench.Figure8SelectionShare(dataset(), env)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  selection share of the w/o-select-join plan: %.0f%% (paper: ~95%%)\n\n", share*100)
	}
	if wants("9") {
		fmt.Println("=== Figure 9: SSB Q4.1 multi-way join configurations [ms] ===")
		rows, err := bench.Figure9(dataset(), *reps, env, exec)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
	}
	if wants("workers") {
		fmt.Println("=== Ablation: shared worker pool size (morsel-driven parallelism, Section 7) [ms] ===")
		rows, err := bench.AblationWorkers(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
	}
	if wants("joinbuffer") {
		fmt.Println("=== Ablation: joinbuffer size on Q2.3 (demonstrator knob) [ms] ===")
		rows, err := bench.AblationJoinBuffer(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
	}
	if wants("kprime") {
		fmt.Println("=== Ablation: prefix length k' (Section 2.1) ===")
		n := min(sizes[0], 2000000)
		for _, r := range bench.AblationKPrime(n) {
			fmt.Printf("  k'=%d %-6s  insert %7.1f ns/key  lookup %7.1f ns/key  %6.1f B/key\n",
				r.KPrime, r.Dist, r.InsertNs, r.LookupNs, r.BytesPerKey)
		}
		fmt.Println()
	}
	if wants("compression") {
		fmt.Println("=== Ablation: KISS bitmask compression (Section 2.2) ===")
		n := min(sizes[0], 2000000)
		for _, r := range bench.AblationKISSCompression(n) {
			fmt.Printf("  %-6s compress=%-5v  insert %7.1f ns/key  %8.2f MB  RCU copies %d\n",
				r.Dist, r.Compress, r.InsertNs, float64(r.Bytes)/1e6, r.RCUCopies)
		}
		fmt.Println()
	}
	if wants("batch") {
		fmt.Println("=== Ablation: batch lookup size (Section 2.3) ===")
		n := min(sizes[len(sizes)-1], 8000000)
		for _, r := range bench.AblationBatchSize(n) {
			fmt.Printf("  batch %5d  lookup %7.1f ns/key\n", r.BatchSize, r.LookupNs)
		}
		fmt.Println()
	}
	if wants("memlife") {
		fmt.Println("=== Ablation: plan memory lifecycle (recycler, spilling) over the SSB suite ===")
		rows, err := bench.AblationMemLifecycle(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  %-24s %9.1f ms  alloc %8.2f MB (%9d objs)  GC pause %6.2f ms (%3d cycles)  thaw-read %10s  reused %6d chunks (%s saved)\n",
				r.Config, r.Millis, float64(r.AllocBytes)/1e6, r.Allocs,
				float64(r.GCPauseNs)/1e6, r.NumGC, spill.FormatBytes(r.ThawBytesRead),
				r.ChunksReused, spill.FormatBytes(r.SavedBytes))
		}
		fmt.Println()
		snap.MemLife = rows
	}
	if wants("fusion") {
		fmt.Println("=== Ablation: pipeline fusion vs materialized intermediates (decomposed plans) over the SSB suite [ms] ===")
		rows, err := bench.AblationFusion(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  Q%-4s fused %8.1f ms  materialized %8.1f ms  %d indexes skipped  %9d combinations streamed  identical=%v\n",
				r.Query, r.FusedMillis, r.UnfusedMillis, r.FusedEdges, r.TuplesStreamed, r.Identical)
		}
		fmt.Println()
		snap.Fusion = rows
	}
	if wants("probe") {
		fmt.Println("=== Ablation: batched vs scalar probe forwarding in fused chains (decomposed plans) over the SSB suite [ms] ===")
		rows, err := bench.AblationProbe(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  Q%-4s batched %8.1f ms  scalar %8.1f ms  materialized %8.1f ms  %6d batches (avg fill %6.1f)  identical=%v\n",
				r.Query, r.BatchedMillis, r.ScalarMillis, r.MaterializedMillis, r.ProbeBatches, r.AvgBatchFill, r.Identical)
		}
		fmt.Println()
		snap.Probe = rows
	}
	if wants("kernel") {
		fmt.Println("=== Ablation: SWAR batch kernels vs scalar fallback (fused batched plans) over the SSB suite [ms] ===")
		rows, err := bench.AblationKernel(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  Q%-4s kernel %8.1f ms  scalar %8.1f ms  materialized %8.1f ms  %5d SWAR / %d scalar descents  identical=%v\n",
				r.Query, r.KernelMillis, r.ScalarMillis, r.MaterializedMillis, r.KernelDescents, r.ScalarDescents, r.Identical)
		}
		fmt.Println()
		snap.Kernel = rows
	}
	if *benchjson != "" {
		if err := appendSnapshot(*benchjson, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("appended perf snapshot to %s\n", *benchjson)
	}
}

func printFig3(rows []bench.Fig3Row) {
	bySize := map[int][]bench.Fig3Row{}
	var sizes []int
	for _, r := range rows {
		if len(bySize[r.Size]) == 0 {
			sizes = append(sizes, r.Size)
		}
		bySize[r.Size] = append(bySize[r.Size], r)
	}
	fmt.Printf("  %-14s", "structure")
	for _, s := range sizes {
		fmt.Printf(" %10s", humanCount(s))
	}
	fmt.Println()
	for _, structure := range bench.Fig3Structures {
		fmt.Printf("  %-14s", structure)
		for _, s := range sizes {
			for _, r := range bySize[s] {
				if r.Structure == structure {
					fmt.Printf(" %10.1f", r.NsPerKey)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

func printQueryTimes(rows []bench.QueryTime) {
	for _, r := range rows {
		label := r.Engine
		if r.Config != "" {
			label += " " + r.Config
		}
		fmt.Printf("  Q%-4s %-48s %10.1f ms  (%d rows)\n", r.Query, label, r.Millis, r.Rows)
	}
	fmt.Println()
}

func humanCount(n int) string {
	switch {
	case n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n%1000 == 0:
		return fmt.Sprintf("%dK", n/1000)
	}
	return strconv.Itoa(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qpptbench:", err)
	os.Exit(1)
}
