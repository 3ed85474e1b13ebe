package main

import (
	"fmt"
	"math"
	"slices"
)

// A metricDef names one metric of BENCHMARK.json. Bound is the share of
// the baseline's median by which an end-to-end metric may worsen before
// -compare calls it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the metrics a client of the server sees, reported for every
// workload by a timed run (tracing off), over the whole window. The bounds of
// the three timing metrics are the widest the contract allows: ten seeds on
// the shared 2-core sandbox spread by up to 6 % (interquartile range over
// median), and a bound should be at least three times the spread.
// Allocation repeats to 1 % or better.
var endToEnd = []metricDef{
	{"qps", "queries/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.05},
	// 1 - failed_share: the contract wants metrics that are never 0. The
	// issue's "any rise" is a bound of one failure in a million requests,
	// more than any run attempts; -compare also counts the failures.
	{"ok_share", "ratio", "higher", 0.000001},
	{"setup_s", "s", "lower", 0.25},
}

// tracedLayer are the per-layer metrics a traced run takes per workload,
// around the calls into each layer. The README says which end-to-end metric
// each should move.
var tracedLayer = []metricDef{
	{"wire.overhead_ms", "ms", "lower", 0},
	{"wire.bytes_per_query", "B", "lower", 0},
	{"admission.waited", "count", "lower", 0},
	{"admission.rejected", "count", "lower", 0},
	{"sql.parse_us", "us", "lower", 0},
	{"sql.plan_us", "us", "lower", 0},
	{"stmtcache.hit_ratio", "ratio", "higher", 0},
	{"session.prepare_us", "us", "lower", 0},
	{"session.run_us", "us", "lower", 0},
	{"core.op_ms", "ms", "lower", 0},
	{"core.materialize_ms", "ms", "lower", 0},
	{"core.index_ms", "ms", "lower", 0},
	{"core.fused_edges", "count", "higher", 0},
	{"core.tuples_streamed", "count", "higher", 0},
	{"core.avg_batch_fill", "count", "higher", 0},
	{"core.workers", "count", "higher", 0},
	{"core.morsels", "count", "higher", 0},
	{"tree.kernel_descents", "count", "higher", 0},
	{"tree.scalar_descents", "count", "lower", 0},
	{"arena.chunks_reused", "count", "higher", 0},
	{"arena.saved_bytes", "B", "higher", 0},
	{"arena.trim_evicted", "count", "lower", 0},
	{"spill.freezes", "count", "lower", 0},
	{"spill.thaws", "count", "lower", 0},
	{"spill.bytes_out_per_query", "B", "lower", 0},
	{"spill.bytes_in_per_query", "B", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// probeLayer are the per-layer metrics of the stand-alone layer probes
// (probes.go). They do not depend on the workload and are taken once per
// invocation, after the traced runs.
var probeLayer = []metricDef{
	{"wire.frame_ns_per_row", "ns", "lower", 0},
	{"admission.acquire_ns", "ns", "lower", 0},
	{"prefixtree.insert_ns_per_key", "ns", "lower", 0},
	{"prefixtree.lookup_ns_per_key", "ns", "lower", 0},
	{"prefixtree.range_ns_per_key", "ns", "lower", 0},
	{"kisstree.insert_ns_per_key", "ns", "lower", 0},
	{"kisstree.lookup_ns_per_key", "ns", "lower", 0},
	{"kisstree.range_ns_per_key", "ns", "lower", 0},
	{"kernel.frags_ns_per_key", "ns", "lower", 0},
	{"kernel.rangemask_ns_per_key", "ns", "lower", 0},
	{"kernel.frags_generic_ns_per_key", "ns", "lower", 0},
	{"kernel.rangemask_generic_ns_per_key", "ns", "lower", 0},
	{"spill.freeze_mb_s", "MB/s", "higher", 0},
	{"spill.thaw_mb_s", "MB/s", "higher", 0},
	{"catalog.index_build_s", "s", "lower", 0},
	{"catalog.decode_ns_per_cell", "ns", "lower", 0},
}

// perLayer is BENCHMARK.json's per_layer list: what the last line of a
// --trace 1 invocation carries.
var perLayer = slices.Concat(tracedLayer, probeLayer)

// A metric is one measured value as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the metrics of a result from measured values: every def must
// have a finite value, so a metric cannot silently go missing.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (%v)", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median sorts a copy of values and returns its nearest-rank median.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return percentile(s, 50)
}
