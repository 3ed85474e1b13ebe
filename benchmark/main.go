// Command benchmark is QPPT's client-view benchmark: it drives a fresh wire
// server over TCP loopback with five closed-loop workloads, checks every
// answer, and reports six end-to-end metrics per workload (timed runs,
// tracing off) and the per-layer metrics behind them (traced runs plus
// stand-alone layer probes). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"qppt/internal/kernel"
)

// A record is everything one invocation measured, written to
// <out>/record.json; -compare reads them.
type record struct {
	Schema int               `json:"schema"`
	Env    envInfo           `json:"env"`
	Runs   []*result         `json:"runs"`
	Probes map[string]metric `json:"probes,omitempty"` // the stand-alone layer probes
}

// envInfo says where and how the numbers were taken. The load is closed
// loop, so there is no generator lateness to report.
type envInfo struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	SF         float64 `json:"sf"`
	Seed       int64   `json:"seed"`
	DataSeed   int64   `json:"data_seed"`
	Seconds    float64 `json:"seconds"`
	SetupRuns  int     `json:"setup_runs"`
}

// commit is the revision the binary was built from, when the build saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// checkDeclaration compares BENCHMARK.json, which tells the driver what this
// program measures, with the workloads and metrics in the code. Every
// measuring invocation starts with it, so the two cannot drift apart
// unnoticed.
func checkDeclaration(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	type decl struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var d struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var want struct{ workloads, endToEnd, perLayer []decl }
	for _, w := range workloads {
		want.workloads = append(want.workloads, decl{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		want.endToEnd = append(want.endToEnd, decl{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		want.perLayer = append(want.perLayer, decl{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, c := range []struct {
		what      string
		got, want []decl
	}{{"workloads", d.Workloads, want.workloads}, {"end_to_end", d.EndToEnd, want.endToEnd}, {"per_layer", d.PerLayer, want.perLayer}} {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("%s declares %d %s, the code has %d", path, len(c.got), c.what, len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				return fmt.Errorf("%s, %s[%d]: declared %+v, the code has %+v", path, c.what, i, c.got[i], c.want[i])
			}
		}
	}
	return nil
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of the request generators")
		seconds = flag.Float64("seconds", 10, "length of the timed window in seconds")
		trace   = flag.String("trace", "", "0: timed runs only, 1: traced runs only (default: both)")
		sf      = flag.Float64("sf", 0.2, "SSB scale factor")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for record.json, traces and temp files")
		compare = flag.Bool("compare", false, "compare two sides: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json[,a2.json...] b.json[,b2.json...]"))
		}
		worse, err := compareRecords(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*trace != "" && *trace != "0" && *trace != "1") || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkDeclaration("BENCHMARK.json"); err != nil {
		fatal(err)
	}
	picked := workloads
	if *names != "" {
		picked = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				fatal(fmt.Errorf("unknown workload %q", n))
			}
			picked = append(picked, w)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	env := runEnv{sf: *sf, seed: *seed, nproc: runtime.GOMAXPROCS(0), out: *out}
	rec := record{Schema: 1, Env: envInfo{
		Commit: commit(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: env.nproc, Kernel: kernel.Mode(),
		SF: *sf, Seed: *seed, DataSeed: dataSeed, Seconds: *seconds, SetupRuns: setupRuns,
	}}
	fmt.Printf("qppt benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, kernels %s, SF %g, seed %d, window %gs\n",
		rec.Env.Commit, rec.Env.Go, rec.Env.NProc, env.nproc, rec.Env.Kernel, *sf, *seed, *seconds)
	for _, w := range picked {
		if *trace != "1" {
			res, err := runTimed(w, env, window)
			if err != nil {
				fatal(err)
			}
			rec.Runs = append(rec.Runs, res)
			res.print(endToEnd)
		}
		if *trace != "0" {
			res, err := runTraced(w, env)
			if err != nil {
				fatal(err)
			}
			rec.Runs = append(rec.Runs, res)
			res.print(tracedLayer)
		}
	}
	// The contract's result line is the last run's; a traced one also carries
	// the layer probes, so that it holds every per-layer metric.
	last := rec.Runs[len(rec.Runs)-1]
	lastMetrics := last.Metrics
	if *trace != "0" {
		var err error
		if rec.Probes, err = runProbes(env); err != nil {
			fatal(err)
		}
		fmt.Printf("\n== layer probes, once per invocation ==\n")
		lastMetrics = maps.Clone(last.Metrics)
		for _, d := range probeLayer {
			fmt.Printf("%-12s %-36s %16.4f %s\n", "probe", d.Name, rec.Probes[d.Name].Value, d.Unit)
			lastMetrics[d.Name] = rec.Probes[d.Name]
		}
	}
	buf, err := json.MarshalIndent(rec, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "record.json"), append(buf, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, lastMetrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// print writes every metric of the run by name and unit, then what else the
// run saw: ungated extras, and for a traced run the layer table, the
// operators and the paper line-up.
func (r *result) print(defs []metricDef) {
	kind := "timed"
	if r.Trace == 1 {
		kind = "traced"
	}
	fmt.Printf("\n== %s, %s: seed %d, %d client(s), %d worker(s), requests %s, %d attempted, %d failed ==\n",
		r.Workload, kind, r.Seed, r.Clients, r.Workers, r.RequestHash, r.Attempted, r.Failed)
	for _, d := range defs {
		fmt.Printf("%-12s %-36s %16.4f %s\n", r.Workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("%-12s %-36s %16.4f (not gated)\n", r.Workload, k, r.Extra[k])
	}
	if len(r.Layers) > 0 {
		fmt.Printf("%-12s layer self time as a share of request time (wire round trip + in-process replay):\n", r.Workload)
		for _, l := range r.Layers {
			fmt.Printf("%-12s   %-22s %6d spans %12.3f ms %6.1f%%\n", r.Workload, l.Layer, l.Spans, l.SelfMs, 100*l.Share)
		}
	}
	if len(r.OpMillis) > 0 {
		labels := make([]string, 0, len(r.OpMillis))
		for l := range r.OpMillis {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool { return r.OpMillis[labels[i]] > r.OpMillis[labels[j]] })
		fmt.Printf("%-12s core.op_ms by operator label (top %d of %d):\n", r.Workload, min(len(labels), 8), len(labels))
		for _, l := range labels[:min(len(labels), 8)] {
			fmt.Printf("%-12s   %-30s %12.3f ms\n", r.Workload, l, r.OpMillis[l])
		}
	}
	for _, f := range r.Reference {
		fmt.Printf("%-12s reference %s: QPPT %.2f ms, column %.2f ms (QPPT/column %.2f), vector %.2f ms (QPPT/vector %.2f); paper Figure 7: %s\n",
			r.Workload, f.Flight, f.QPPTMs, f.ColumnMs, f.VsColumn, f.VectorMs, f.VsVector, f.Paper)
	}
}
