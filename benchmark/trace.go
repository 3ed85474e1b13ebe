package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"qppt"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// A span is one timed interval of a traced request. Spans of one request
// share its query_id; parent is the id of the span that caused this one, 0
// for the request itself.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	QueryID int    `json:"query_id"`
}

// A tracer keeps spans in memory until the run ends. It is used from one
// goroutine only. All spans are recorded from this package, around the
// calls into each layer; there are none inside the engine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name string, query int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, QueryID: query, StartNs: t.now()})
	return len(t.spans)
}

// end closes the span and returns its duration in ns.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.EndNs = t.now()
	return s.EndNs - s.StartNs
}

// add records a span whose duration was measured elsewhere (by the server,
// or by the executor's operator statistics): only its length is a
// measurement, its position inside the parent is by convention. It is
// clipped to the parent, so that operators that ran side by side cannot
// claim more time than the run that contains them took.
func (t *tracer) add(parent int, name string, query int, start, end int64) {
	p := t.spans[parent-1]
	start = min(max(start, p.StartNs), p.EndNs)
	end = min(max(end, start), p.EndNs)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, QueryID: query, StartNs: start, EndNs: end})
}

// selfTimes returns, by span id-1, each span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are not counted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.StartNs, b.StartNs) })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// A layerRow is one line of the layer table: the self time of all spans of
// one layer, as a share of the total request time.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// unattributed is the row for time inside a request that no layer's span
// covers: the harness's own bookkeeping between the calls.
const unattributed = "unattributed"

// layerOf maps a span name to its row of the layer table.
func layerOf(name string) string {
	switch {
	case name == "request" || name == "replay":
		return unattributed
	case strings.HasPrefix(name, "core.op "):
		return "core.op"
	}
	return name
}

// layerTable sums self times by layer. The shares add up to 1: every
// nanosecond of every request is in exactly one row.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	var total int64
	rows := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		if s.Parent == 0 {
			total += s.EndNs - s.StartNs
		}
		l := layerOf(s.Name)
		if rows[l] == nil {
			rows[l] = &layerRow{Layer: l}
			order = append(order, l)
		}
		rows[l].Spans++
		rows[l].SelfMs += float64(self[i]) / 1e6
	}
	out := make([]layerRow, 0, len(order))
	for _, l := range order {
		r := *rows[l]
		if total > 0 {
			r.Share = r.SelfMs * 1e6 / float64(total)
		}
		out = append(out, r)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// A flightRef lines one SSB query flight up against the in-repo baseline
// engines, next to the ordering the paper's Figure 7 reports. Not gated.
type flightRef struct {
	Flight   string  `json:"flight"`
	QPPTMs   float64 `json:"qppt_ms"`
	ColumnMs float64 `json:"column_ms"`
	VectorMs float64 `json:"vector_ms"`
	VsColumn float64 `json:"qppt_over_column"`
	VsVector float64 `json:"qppt_over_vector"`
	Paper    string  `json:"paper_figure7"`
}

// paperFigure7 is the ordering the paper reports at SF 15: QPPT (DexterDB)
// fastest on every flight, the vector-at-a-time system next, the
// column-at-a-time system last, so both ratios are below 1 there.
const paperFigure7 = "QPPT < vector-at-a-time < column-at-a-time"

// paperLineup times the two baseline engines once per query and sums per
// flight; qpptMs is the traced in-process run time by query id.
func paperLineup(ds *ssb.Dataset, qpptMs map[string]float64) ([]flightRef, error) {
	var out []flightRef
	for _, qid := range ssb.QueryIDs {
		flight := "Q" + qid[:1] + ".x"
		if len(out) == 0 || out[len(out)-1].Flight != flight {
			out = append(out, flightRef{Flight: flight, Paper: paperFigure7})
		}
		f := &out[len(out)-1]
		t0 := time.Now()
		if _, err := ds.RunColumn(qid); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := ds.RunVector(qid); err != nil {
			return nil, err
		}
		f.ColumnMs += float64(t1.Sub(t0).Nanoseconds()) / 1e6
		f.VectorMs += float64(time.Since(t1).Nanoseconds()) / 1e6
		f.QPPTMs += qpptMs[qid]
	}
	for i := range out {
		out[i].VsColumn = out[i].QPPTMs / out[i].ColumnMs
		out[i].VsVector = out[i].QPPTMs / out[i].VectorMs
	}
	return out, nil
}

// runTraced is the per-layer run of one workload, separate from the timed
// run: one client replays the workload's fixed request list, so every count
// repeats exactly for a seed. Each request is a root span with two
// children: wire.roundtrip, the real call over TCP, which the server's
// reported run time splits into wire.server_run and the rest; and replay,
// the same text run in-process on the same engine as sql.parse, sql.plan,
// session.prepare and session.run, the last with one child per operator.
func runTraced(w workload, env runEnv) (*result, error) {
	st, err := setup(w, env, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	checked, wrong, err := st.verify()
	if err != nil {
		return nil, err
	}
	list := st.reqs.traced
	ctx := context.Background()

	// The same list without tracing: what tracing overhead is measured against.
	var plain int64
	for _, i := range list {
		t0 := time.Now()
		if _, err := st.query(0, st.reqs.text(i)); err != nil {
			return nil, fmt.Errorf("%s: untraced pass: %w", w.name, err)
		}
		plain += time.Since(t0).Nanoseconds()
	}

	base, bytes0 := st.eng.Stats(), st.socketBytes()
	sess := st.eng.Session(st.ds.Cat)
	planner := sql.NewPlanner(st.ds.Cat)
	tr := &tracer{t0: time.Now()}
	durs := map[string][]float64{} // span name → durations in ns
	var (
		overheadMs               []float64
		roundtrips, elapsedBytes int64
		fusedEdges, streamed     int
		kernelDesc, scalarDesc   int
		batches, morsels         int
		fan                      fanOut
		fill                     float64
		opNs, matNs, idxNs       int64
		rows                     int64
	)
	opMs := map[string]float64{}
	runMs := map[int][]float64{} // text index → in-process run times
	failed := wrong
	for q, i := range list {
		text := st.reqs.text(i)
		missesBefore := st.eng.Stats().StmtCache.Misses
		root := tr.begin(0, "request", q)

		rt := tr.begin(root, "wire.roundtrip", q)
		res, err := st.query(0, text)
		lat := tr.end(rt)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		rtEnd := tr.spans[rt-1].EndNs
		tr.add(rt, "wire.server_run", q, rtEnd-res.Elapsed.Nanoseconds(), rtEnd)

		rp := tr.begin(root, "replay", q)
		id := tr.begin(rp, "sql.parse", q)
		ast, err := sql.Parse(text)
		durs["sql.parse"] = append(durs["sql.parse"], float64(tr.end(id)))
		if err != nil {
			return nil, err
		}
		id = tr.begin(rp, "sql.plan", q)
		_, err = planner.Plan(ast, sql.Options{UseSelectJoin: true})
		durs["sql.plan"] = append(durs["sql.plan"], float64(tr.end(id)))
		if err != nil {
			return nil, err
		}
		id = tr.begin(rp, "session.prepare", q)
		stmt, err := sess.Prepare(ctx, text)
		prepare := tr.end(id)
		durs["session.prepare"] = append(durs["session.prepare"], float64(prepare))
		if err != nil {
			return nil, err
		}
		run := tr.begin(rp, "session.run", q)
		replayed, ps, err := stmt.Run(ctx, qppt.WithStats())
		runNs := tr.end(run)
		durs["session.run"] = append(durs["session.run"], float64(runNs))
		if err != nil {
			return nil, err
		}
		// Operators become children of the run, laid end to end.
		at := tr.spans[run-1].StartNs
		fusedEdges += ps.FusedEdges
		for _, op := range ps.Ops {
			ns := op.Time.Nanoseconds()
			tr.add(run, "core.op "+op.Label, q, at, at+ns)
			at += ns
			streamed += op.TuplesStreamed
			kernelDesc += op.KernelDescents
			scalarDesc += op.ScalarDescents
			batches += op.ProbeBatches
			fill += op.AvgBatchFill * float64(op.ProbeBatches)
			fan.note(op)
			morsels += op.Morsels
			opNs += ns
			matNs += op.MaterializeTime.Nanoseconds()
			idxNs += op.IndexTime.Nanoseconds()
			opMs[op.Label] += float64(ns) / 1e6
		}
		tr.end(rp)
		tr.end(root)

		if digestOf(res) != st.expect(i) || (!w.decoded && !sameRows(res.Rows, replayed.Rows)) {
			failed++
			fmt.Fprintf(os.Stderr, "%s: wrong traced answer %+v, want %+v for %q\n", w.name, digestOf(res), st.expect(i), text)
		}
		// On a statement-cache miss the server planned inside the round
		// trip; the replay's prepare span stands in for that share.
		over := lat - res.Elapsed.Nanoseconds()
		if st.eng.Stats().StmtCache.Misses > missesBefore {
			over -= prepare
		}
		overheadMs = append(overheadMs, float64(over)/1e6)
		roundtrips += lat
		// The Done frame carries the server's elapsed time as a varint whose
		// length follows the clock; leave it out so the byte count repeats.
		elapsedBytes += int64(len(binary.AppendUvarint(nil, uint64(res.Elapsed.Nanoseconds()))))
		rows += int64(len(res.Rows) + len(res.Strs))
		runMs[i] = append(runMs[i], float64(runNs)/1e6)
	}
	now := st.eng.Stats()
	p := premisesOf(base, now)
	p.answers, p.rows, p.fan = len(list), rows, fan
	if bad := w.guard(p, env.nproc); len(bad) > 0 {
		return nil, fmt.Errorf("premise guards failed:\n  %s", strings.Join(bad, "\n  "))
	}
	if err := writeTrace(filepath.Join(env.out, "trace-"+w.name+".jsonl"), tr.spans); err != nil {
		return nil, err
	}

	n := float64(len(list))
	execs := 2 * n // every request ran over the wire and in the replay
	table := layerTable(tr.spans)
	values := map[string]float64{
		"wire.overhead_ms":          median(overheadMs),
		"wire.bytes_per_query":      float64(st.socketBytes()-bytes0-elapsedBytes) / n,
		"admission.waited":          float64(p.waited),
		"admission.rejected":        float64(p.rejected),
		"sql.parse_us":              median(durs["sql.parse"]) / 1e3,
		"sql.plan_us":               median(durs["sql.plan"]) / 1e3,
		"stmtcache.hit_ratio":       p.hitRatio(),
		"session.prepare_us":        median(durs["session.prepare"]) / 1e3,
		"session.run_us":            median(durs["session.run"]) / 1e3,
		"core.op_ms":                float64(opNs) / 1e6 / n,
		"core.materialize_ms":       float64(matNs) / 1e6 / n,
		"core.index_ms":             float64(idxNs) / 1e6 / n,
		"core.fused_edges":          float64(fusedEdges),
		"core.tuples_streamed":      float64(streamed),
		"core.avg_batch_fill":       fill / float64(max(batches, 1)),
		"core.workers":              float64(fan.workers),
		"core.morsels":              float64(morsels),
		"tree.kernel_descents":      float64(kernelDesc),
		"tree.scalar_descents":      float64(scalarDesc),
		"arena.chunks_reused":       float64(now.Recycler.Reused - base.Recycler.Reused),
		"arena.saved_bytes":         float64(now.Recycler.SavedBytes - base.Recycler.SavedBytes),
		"arena.trim_evicted":        float64(now.Recycler.TrimEvicted - base.Recycler.TrimEvicted),
		"spill.freezes":             float64(p.freezes),
		"spill.thaws":               float64(p.thaws),
		"spill.bytes_out_per_query": float64(now.Spill.SpillBytes-base.Spill.SpillBytes) / execs,
		"spill.bytes_in_per_query":  float64(now.Spill.RestoreBytes-base.Spill.RestoreBytes) / execs,
		"trace.overhead_ratio":      float64(roundtrips) / float64(plain),
	}
	for _, r := range table {
		if r.Layer == unattributed {
			values["trace.unattributed_share"] = r.Share
		}
	}
	metrics, err := pick(tracedLayer, values)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: env.seed, Trace: 1, Clients: 1, Workers: p.pool,
		RequestHash: st.reqs.hash(),
		Correct:     failed == 0, Attempted: checked + len(list), Failed: failed,
		Metrics: metrics, Layers: table, OpMillis: opMs,
		Extra: map[string]float64{
			"requests":              n,
			"qps_untraced":          n / (float64(plain) / 1e9),
			"qps_traced":            n / (float64(roundtrips) / 1e9),
			"core.multi_worker_ops": float64(fan.parOps),
		},
	}
	if w.lineup {
		byQuery := map[string]float64{}
		for i, ms := range runMs {
			byQuery[ssb.QueryIDs[i]] = median(ms)
		}
		if res.Reference, err = paperLineup(st.ds, byQuery); err != nil {
			return nil, err
		}
	}
	return res, nil
}
