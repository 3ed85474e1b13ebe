package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/wire"
)

// setupRuns is how often a timed run sets up: setup_s is the median, the
// last stack serves the window.
const setupRuns = 3

// A result is the outcome of one run of one workload, timed or traced.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Clients     int                `json:"clients"`
	Workers     int                `json:"workers"`
	RequestHash string             `json:"request_hash"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Extra       map[string]float64 `json:"extra,omitempty"` // printed, not gated
	Layers      []layerRow         `json:"layers,omitempty"`
	OpMillis    map[string]float64 `json:"core.op_ms,omitempty"` // by operator label
	Reference   []flightRef        `json:"reference,omitempty"`
}

// fanOut is what the operator statistics of some executions say about
// intra-query parallelism.
type fanOut struct {
	workers   int // most pool workers that contributed a partial to one operator
	parOps    int // operators run by > 1 worker: each merged its workers' partials
	mergeRows int // the largest output of such an operator
}

func (f *fanOut) note(op core.OperatorStats) {
	f.workers = max(f.workers, op.Workers)
	if op.Workers > 1 {
		f.parOps++
		f.mergeRows = max(f.mergeRows, op.OutRows)
	}
}

// measureFanOut runs every warm text once in-process on the stack's engine
// with operator statistics on. The wire protocol does not carry them, so
// this is how a timed run sees whether its texts fan out. It runs after the
// window: its executions are in none of the window's counts.
func (s *stack) measureFanOut() (fanOut, error) {
	var f fanOut
	sess := s.eng.Session(s.ds.Cat)
	for _, i := range s.reqs.warm {
		_, ps, err := sess.Query(context.Background(), s.reqs.text(i), qppt.WithStats())
		if err != nil {
			return f, fmt.Errorf("%s: fan-out check, text %d: %w", s.w.name, i, err)
		}
		for _, op := range ps.Ops {
			f.note(op)
		}
	}
	return f, nil
}

// premises are the counts the premise guards look at.
type premises struct {
	freezes, thaws   int
	hits, misses     int64
	waited, rejected int64
	pool             int // the engine's worker pool, as configured
	fan              fanOut
	answers          int
	rows             int64
}

func premisesOf(base, now qppt.Stats) premises {
	return premises{
		freezes:  now.Spill.Spills - base.Spill.Spills,
		thaws:    now.Spill.Restores - base.Spill.Restores,
		hits:     now.StmtCache.Hits - base.StmtCache.Hits,
		misses:   now.StmtCache.Misses - base.StmtCache.Misses,
		waited:   now.Admission.Waited - base.Admission.Waited,
		rejected: now.Admission.Rejected - base.Admission.Rejected,
		pool:     now.Workers,
	}
}

func (p premises) hitRatio() float64 {
	if p.hits+p.misses == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.hits+p.misses)
}

// guard returns the premises the run violated: a workload that no longer
// measures what its name says fails the run instead of reporting a number.
func (w workload) guard(p premises, nproc int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, w.name+": "+fmt.Sprintf(format, args...)) }
	if w.spill && p.freezes == 0 {
		fail("no index was frozen under the memory budget")
	}
	if !w.spill && (p.freezes != 0 || p.thaws != 0) {
		fail("%d freezes and %d thaws without a memory budget", p.freezes, p.thaws)
	}
	if r := p.hitRatio(); w.cached && r <= 0.95 {
		fail("statement-cache hit ratio %.3f, want > 0.95", r)
	} else if !w.cached && r >= 0.01 {
		fail("statement-cache hit ratio %.3f, want < 0.01", r)
	}
	// What the operators did, not what the engine was told: a pool of nproc
	// workers whose operators all run on one measures nothing parallel.
	if w.par {
		if nproc < 2 {
			fail("needs at least 2 CPUs to run anything in parallel, has %d", nproc)
		} else if p.fan.workers < 2 || p.fan.parOps == 0 {
			fail("no operator ran on more than one of the pool's %d workers (most: %d), so nothing was merged", p.pool, p.fan.workers)
		} else if p.fan.mergeRows < w.mergeRows {
			fail("largest output of a multi-worker operator has %d rows, want >= %d for the partition-wise merge", p.fan.mergeRows, w.mergeRows)
		}
	} else if p.fan.workers > 1 {
		fail("an operator ran on %d workers, want serial execution", p.fan.workers)
	}
	if p.waited != 0 || p.rejected != 0 {
		fail("admission gate queued %d and rejected %d plans, want 0", p.waited, p.rejected)
	}
	if p.answers > 0 && p.rows/int64(p.answers) < int64(w.minRows) {
		fail("mean %d rows per answer, want >= %d", p.rows/int64(p.answers), w.minRows)
	}
	return bad
}

// tally is what one closed-loop client saw inside the timed window.
type tally struct {
	latMs     []float64 // of its good requests
	attempted int
	failed    int
	rows      int64
}

// drive is one closed-loop client: it sends its k-th request when the answer
// to the previous one is in, from now until end, and counts the requests
// that started at or after start and finished by end. A request is good when
// its answer matches the oracle's digest for its text.
func (s *stack) drive(c int, start, end time.Time) tally {
	var t tally
	for k := 0; ; k++ {
		i := s.reqs.at(c, k)
		text := s.reqs.text(i) // built before the clock starts
		t0 := time.Now()
		if !t0.Before(end) {
			return t
		}
		res, err := s.query(c, text)
		t1 := time.Now()
		timed := !t0.Before(start) && !t1.After(end)
		var werr *wire.Error
		if err != nil && !errors.As(err, &werr) {
			// The connection itself failed, not the query. Everything this
			// client would still have sent is lost; one failure stands for it.
			fmt.Fprintf(os.Stderr, "%s: client %d: %v\n", s.w.name, c, err)
			t.attempted++
			t.failed++
			return t
		}
		// An error frame (overload, say) leaves the connection in step.
		good := err == nil && digestOf(res) == s.expect(i)
		if err == nil && !good {
			fmt.Fprintf(os.Stderr, "%s: wrong answer %+v, want %+v for %q\n", s.w.name, digestOf(res), s.expect(i), text)
		}
		if !timed {
			continue
		}
		t.attempted++
		if !good {
			t.failed++
			continue
		}
		t.latMs = append(t.latMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		t.rows += int64(len(res.Rows) + len(res.Strs))
	}
}

// runTimed is one end-to-end run: set up setupRuns times, verify the warm
// answers of the last stack, ramp, then measure a closed-loop window with
// tracing off.
func runTimed(w workload, env runEnv, window time.Duration) (*result, error) {
	clients := min(w.clients, env.nproc)
	var st *stack
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC() // the next set-up should not pay for this one's garbage
		}
		var err error
		if st, err = setup(w, env, clients); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.close()
	checked, wrong, err := st.verify()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	base := st.eng.Stats()

	ramp := min(time.Second, window/4)
	start := time.Now().Add(ramp)
	end := start.Add(window)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[c] = st.drive(c, start, end)
		}()
	}
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(start))
	runtime.ReadMemStats(&m0)
	time.Sleep(time.Until(end))
	runtime.ReadMemStats(&m1)
	wg.Wait()

	var lat []float64 // all good requests of the window
	p := premisesOf(base, st.eng.Stats())
	if w.par {
		if p.fan, err = st.measureFanOut(); err != nil {
			return nil, err
		}
	}
	attempted, failed := checked, wrong
	for _, t := range tallies {
		lat = append(lat, t.latMs...)
		attempted += t.attempted
		failed += t.failed
		p.rows += t.rows
	}
	p.answers = len(lat)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no request completed inside the %v window", w.name, window)
	}
	if bad := w.guard(p, env.nproc); len(bad) > 0 {
		return nil, fmt.Errorf("premise guards failed:\n  %s", strings.Join(bad, "\n  "))
	}
	slices.Sort(lat)
	values := map[string]float64{
		"qps":                float64(len(lat)) / window.Seconds(),
		"p50_ms":             percentile(lat, 50),
		"p95_ms":             percentile(lat, 95),
		"alloc_kb_per_query": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(lat)),
		"ok_share":           1 - float64(failed)/float64(attempted),
		"setup_s":            median(setups),
	}
	metrics, err := pick(endToEnd, values)
	if err != nil {
		return nil, err
	}
	extra := map[string]float64{
		"p99_ms":              percentile(lat, 99),
		"max_ms":              lat[len(lat)-1],
		"samples":             float64(len(lat)),
		"rows_per_answer":     float64(p.rows) / float64(len(lat)),
		"stmtcache.hit_ratio": p.hitRatio(),
		"spill.freezes":       float64(p.freezes),
		"window_s":            window.Seconds(),
	}
	if w.par {
		extra["core.workers"] = float64(p.fan.workers)
		extra["core.multi_worker_ops"] = float64(p.fan.parOps)
	}
	return &result{
		Workload: w.name, Seed: env.seed, Clients: clients, Workers: p.pool,
		RequestHash: st.reqs.hash(),
		Correct:     failed == 0, Attempted: attempted, Failed: failed,
		Metrics: metrics, Extra: extra,
	}, nil
}
