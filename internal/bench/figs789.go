package bench

import (
	"context"
	"fmt"
	"time"

	"qppt/internal/core"
	"qppt/internal/ssb"
)

// Engines in the paper's plot order.
const (
	EngineQPPT   = "DexterDB (QPPT)"
	EngineVector = "Commercial DBMS (vector-at-a-time)"
	EngineColumn = "MonetDB (column-at-a-time)"
)

// A QueryTime is one bar of Figures 7–9.
type QueryTime struct {
	Query  string
	Engine string
	Config string // plan configuration, where varied
	Millis float64
	Rows   int
}

// timeIt runs fn reps times and returns the best wall time in ms — the
// usual way to strip scheduler noise from single-run query timings.
func timeIt(reps int, fn func() int) (float64, int) {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<62 - 1)
	rows := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		rows = fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1000, rows
}

// timeQPPT times one hand-built SSB plan on env, best of reps.
func timeQPPT(ds *ssb.Dataset, reps int, env *core.Env, qid string, opt ssb.PlanOptions, exec core.Options) (ms float64, rows int, err error) {
	ms, rows = timeIt(reps, func() int {
		res, _, e := ds.RunQPPT(context.Background(), env, qid, opt, exec)
		if e != nil {
			err = e
			return 0
		}
		return len(res.Rows)
	})
	return ms, rows, err
}

// Figure7 reruns the paper's headline experiment: all thirteen SSB
// queries on the three engines, with QPPT in its default plan
// configuration (composed select-joins, unlimited join arity) executing on
// env. The baselines stay single-threaded whatever env's pool size is; the
// QPPT rows record a parallel pool in their Config.
func Figure7(ds *ssb.Dataset, reps int, env *core.Env, exec core.Options) ([]QueryTime, error) {
	var out []QueryTime
	qpptConfig := ""
	if w := env.Workers(); w > 1 {
		qpptConfig = fmt.Sprintf("workers=%d", w)
	}
	for _, qid := range ssb.QueryIDs {
		ms, rows, err := timeQPPT(ds, reps, env, qid, ssb.DefaultPlanOptions(), exec)
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s qppt: %w", qid, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineQPPT, Config: qpptConfig, Millis: ms, Rows: rows})

		ms, rows = timeIt(reps, func() int {
			res, e := ds.RunVector(qid)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s vector: %w", qid, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineVector, Millis: ms, Rows: rows})

		ms, rows = timeIt(reps, func() int {
			res, e := ds.RunColumn(qid)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s column: %w", qid, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineColumn, Millis: ms, Rows: rows})
	}
	return out, nil
}

// QPPTTimes times the thirteen SSB queries on the QPPT engine alone (no
// baselines) on env, labeling every row with config. The perf snapshot
// uses it to record extra engine configurations — e.g. a spill-enabled run
// under a memory budget — without re-timing the baseline engines.
func QPPTTimes(ds *ssb.Dataset, reps int, env *core.Env, exec core.Options, config string) ([]QueryTime, error) {
	var out []QueryTime
	for _, qid := range ssb.QueryIDs {
		ms, rows, err := timeQPPT(ds, reps, env, qid, ssb.DefaultPlanOptions(), exec)
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s qppt (%s): %w", qid, config, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineQPPT, Config: config, Millis: ms, Rows: rows})
	}
	return out, nil
}

// Figure8 reruns the select-join ablation on query 1.1: both baselines
// plus QPPT (on env) with the composed select-join-group operator and with
// a separate selection + join-group plan. The paper reports 151 ms vs
// 1709 ms (~11×) with ~95 % of the separate plan inside the selection.
func Figure8(ds *ssb.Dataset, reps int, env *core.Env, exec core.Options) ([]QueryTime, error) {
	var out []QueryTime
	add := func(engine, config string, fn func() (int, error)) error {
		var err error
		ms, rows := timeIt(reps, func() int {
			n, e := fn()
			if e != nil {
				err = e
			}
			return n
		})
		if err != nil {
			return err
		}
		out = append(out, QueryTime{Query: "1.1", Engine: engine, Config: config, Millis: ms, Rows: rows})
		return nil
	}
	if err := add(EngineColumn, "", func() (int, error) {
		r, e := ds.RunColumn("1.1")
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	if err := add(EngineVector, "", func() (int, error) {
		r, e := ds.RunVector("1.1")
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	if err := add(EngineQPPT, "w/ Select-Join", func() (int, error) {
		r, _, e := ds.RunQPPT(context.Background(), env, "1.1", ssb.PlanOptions{UseSelectJoin: true}, exec)
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	if err := add(EngineQPPT, "w/o Select-Join", func() (int, error) {
		r, _, e := ds.RunQPPT(context.Background(), env, "1.1", ssb.PlanOptions{UseSelectJoin: false}, exec)
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure8SelectionShare reports the share of the separate plan's time
// spent in the lineorder selection operator (the paper: ~95 %).
func Figure8SelectionShare(ds *ssb.Dataset, env *core.Env) (float64, error) {
	_, stats, err := ds.RunQPPT(context.Background(), env, "1.1",
		ssb.PlanOptions{UseSelectJoin: false}, core.Options{CollectStats: true})
	if err != nil {
		return 0, err
	}
	var sel, total time.Duration
	for _, op := range stats.Ops {
		total += op.Time
		if op.Label == "σ→σ_lineorder" {
			sel = op.Time
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(sel) / float64(total), nil
}

// Figure9 reruns the multi-way join arity ablation on query 4.1: both
// baselines plus QPPT plans (on env) capped at 2-, 3-, 4- and 5-way
// composed joins. The paper reports monotone improvement with the 2→3-way
// step the largest (4939 → 1595 → 1091 → 842 ms).
func Figure9(ds *ssb.Dataset, reps int, env *core.Env, exec core.Options) ([]QueryTime, error) {
	var out []QueryTime
	var err error
	ms, rows := timeIt(reps, func() int {
		r, e := ds.RunColumn("4.1")
		if e != nil {
			err = e
			return 0
		}
		return len(r.Rows)
	})
	if err != nil {
		return nil, err
	}
	out = append(out, QueryTime{Query: "4.1", Engine: EngineColumn, Millis: ms, Rows: rows})
	ms, rows = timeIt(reps, func() int {
		r, e := ds.RunVector("4.1")
		if e != nil {
			err = e
			return 0
		}
		return len(r.Rows)
	})
	if err != nil {
		return nil, err
	}
	out = append(out, QueryTime{Query: "4.1", Engine: EngineVector, Millis: ms, Rows: rows})
	for arity := 5; arity >= 2; arity-- {
		if ms, rows, err = timeQPPT(ds, reps, env, "4.1", ssb.PlanOptions{JoinArity: arity}, exec); err != nil {
			return nil, err
		}
		out = append(out, QueryTime{
			Query: "4.1", Engine: EngineQPPT,
			Config: fmt.Sprintf("%d-way join", arity), Millis: ms, Rows: rows,
		})
	}
	return out, nil
}
