package bench

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"

	"qppt/internal/core"
	"qppt/internal/kernel"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
	"qppt/internal/ssb"
)

// AblationJoinBuffer sweeps the joinbuffer/selectionbuffer size on SSB
// query 2.3 — the knob the paper's demonstrator exposes (Appendix A):
// size 1 disables batching; too-small and too-large buffers both hurt.
func AblationJoinBuffer(ds *ssb.Dataset, reps int) ([]QueryTime, error) {
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var out []QueryTime
	for _, size := range []int{1, 64, 512, 2048} {
		ms, rows, err := timeQPPT(ds, reps, env, "2.3", ssb.PlanOptions{UseSelectJoin: true}, core.Options{BufferSize: size})
		if err != nil {
			return nil, err
		}
		out = append(out, QueryTime{
			Query: "2.3", Engine: EngineQPPT,
			Config: fmt.Sprintf("joinbuffer=%d", size), Millis: ms, Rows: rows,
		})
	}
	return out, nil
}

// AblationWorkers sweeps the shared worker pool size (morsel-driven
// parallelism, paper Section 7) on the join-heavy Q4.1 and the
// selection-heavy Q1.1. Workers=1 is the paper's single-threaded mode;
// larger pools split every operator into work-stealing key-range morsels
// and merge the partial outputs partition-wise in parallel. On a
// single-core host the sweep degenerates to measuring scheduling
// overhead, which is itself worth tracking.
func AblationWorkers(ds *ssb.Dataset, reps int) ([]QueryTime, error) {
	var out []QueryTime
	for _, qid := range []string{"1.1", "4.1"} {
		for _, workers := range []int{1, 2, 4, 8} {
			env, err := core.NewEnv(core.EnvConfig{Workers: workers})
			if err != nil {
				return nil, err
			}
			ms, rows, err := timeQPPT(ds, reps, env, qid, ssb.PlanOptions{UseSelectJoin: true}, core.Options{})
			env.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, QueryTime{
				Query: qid, Engine: EngineQPPT,
				Config: fmt.Sprintf("workers=%d", workers), Millis: ms, Rows: rows,
			})
		}
	}
	return out, nil
}

// A KPrimeRow is one point of the k′ trade-off ablation (paper
// Section 2.1): higher k′ halves tree depth (faster) but costs memory on
// sparse key distributions.
type KPrimeRow struct {
	KPrime      uint
	Dist        string // "dense" or "sparse"
	InsertNs    float64
	LookupNs    float64
	Bytes       int
	BytesPerKey float64
}

// AblationKPrime measures insert/lookup time and memory across prefix
// lengths for dense and sparse 32-bit key sets.
func AblationKPrime(n int) []KPrimeRow {
	var out []KPrimeRow
	for _, dist := range []string{"dense", "sparse"} {
		keys := make([]uint64, n)
		rng := rand.New(rand.NewSource(41))
		if dist == "dense" {
			for i := range keys {
				keys[i] = uint64(i)
			}
			rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		} else {
			for i := range keys {
				keys[i] = uint64(rng.Uint32())
			}
		}
		for _, kp := range []uint{2, 4, 8} {
			t := prefixtree.MustNew(prefixtree.Config{PrefixLen: kp, KeyBits: 32})
			insertNs := timePerKey(n, func() {
				for _, k := range keys {
					t.Insert(k, nil)
				}
			})
			lookupNs := timePerKey(n, func() {
				for _, k := range keys {
					if lf := t.Lookup(k); lf != nil {
						sink += lf.Key
					}
				}
			})
			out = append(out, KPrimeRow{
				KPrime: kp, Dist: dist,
				InsertNs: insertNs, LookupNs: lookupNs,
				Bytes: t.Bytes(), BytesPerKey: float64(t.Bytes()) / float64(t.Keys()),
			})
		}
	}
	return out
}

// A CompressionRow is one point of the KISS bitmask-compression ablation
// (paper Section 2.2): compression saves memory on sparse domains but
// pays an RCU copy for every new key on dense domains — the reason QPPT
// disables it for dense value ranges.
type CompressionRow struct {
	Dist      string
	Compress  bool
	InsertNs  float64
	Bytes     int
	RCUCopies int
}

// AblationKISSCompression measures dense and sparse insert costs with and
// without second-level node compression.
func AblationKISSCompression(n int) []CompressionRow {
	var out []CompressionRow
	for _, dist := range []string{"dense", "sparse"} {
		keys := make([]uint64, n)
		rng := rand.New(rand.NewSource(43))
		if dist == "dense" {
			for i := range keys {
				keys[i] = uint64(i)
			}
			rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		} else {
			// One key per second-level node region: worst case for the
			// uncompressed layout's memory, best case for compression.
			for i := range keys {
				keys[i] = uint64(rng.Uint32()) &^ 63
			}
		}
		for _, compress := range []bool{false, true} {
			t := kisstree.MustNew(kisstree.Config{Compress: compress})
			ns := timePerKey(n, func() {
				for _, k := range keys {
					t.Insert(k, nil)
				}
			})
			out = append(out, CompressionRow{
				Dist: dist, Compress: compress,
				InsertNs: ns, Bytes: t.Bytes(), RCUCopies: t.RCUCopies(),
			})
		}
	}
	return out
}

// A MemLifeRow is one configuration of the plan memory-lifecycle
// ablation: the full 13-query SSB suite run under one allocate → spill →
// thaw → recycle configuration, with the memory-system costs the
// lifecycle work targets — heap allocation, GC pauses, and the
// spill-file bytes restores actually had to copy.
type MemLifeRow struct {
	Config        string  `json:"config"`
	Millis        float64 `json:"millis"`            // whole-suite wall time, best of reps
	AllocBytes    uint64  `json:"allocBytes"`        // heap allocated during one suite pass
	Allocs        uint64  `json:"allocs"`            // heap objects allocated during the pass
	GCPauseNs     uint64  `json:"gcPauseNs"`         // GC stop-the-world pause during the pass
	NumGC         uint32  `json:"numGC"`             // GC cycles during the pass
	ThawBytesRead int64   `json:"thawBytesRead"`     // spill-file bytes copied by restores
	ChunksReused  int     `json:"chunksReused"`      // allocations served by the recycler
	SavedBytes    int64   `json:"recycleSavedBytes"` // heap allocation the reuses avoided
}

// memLifeSuite runs the thirteen SSB queries once on env and sums the
// spill/recycler counters from the plan statistics.
func memLifeSuite(ds *ssb.Dataset, env *core.Env, exec core.Options) (thawRead int64, reused int, saved int64, err error) {
	exec.CollectStats = true
	for _, qid := range ssb.QueryIDs {
		_, stats, e := ds.RunQPPT(context.Background(), env, qid, ssb.DefaultPlanOptions(), exec)
		if e != nil {
			return 0, 0, 0, fmt.Errorf("bench: Q%s (%+v): %w", qid, exec, e)
		}
		thawRead += stats.RestoreBytesRead
		reused += stats.ChunksReused
		saved += stats.RecycleSavedBytes
	}
	return thawRead, reused, saved, nil
}

// AblationMemLifecycle compares the plan memory-lifecycle configurations
// on the whole SSB suite, one Env per configuration: the GC baseline, the
// chunk recycler, and spilling. The spill row runs under a 1-byte budget —
// every cold intermediate spills and every re-read restores — because
// under a realistic budget the restore traffic depends on the scale
// factor, and a budget above the peak shows nothing at all. The
// interesting columns are allocations and GC pause (recycler) and thaw
// bytes read (spilling).
func AblationMemLifecycle(ds *ssb.Dataset, reps int) ([]MemLifeRow, error) {
	cfgs := []struct {
		name string
		env  core.EnvConfig
	}{
		{"baseline", core.EnvConfig{}},
		{"recycle", core.EnvConfig{Recycle: true}},
		{"spill-all", core.EnvConfig{MemBudget: 1}},
	}
	// The lifecycle under measurement is allocate → spill → thaw →
	// recycle of the intermediate indexes; fusion would skip building
	// the very intermediates the configurations differ on (the fused
	// path has its own ablation, AblationFusion).
	exec := core.Options{NoFuse: true}
	var out []MemLifeRow
	for _, c := range cfgs {
		row, err := memLifeRow(ds, reps, c.name, c.env, exec)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// memLifeRow measures one configuration in its own Env: the suite timed
// best-of-reps, then one more pass between two memory-statistics reads.
func memLifeRow(ds *ssb.Dataset, reps int, name string, cfg core.EnvConfig, exec core.Options) (MemLifeRow, error) {
	env, err := core.NewEnv(cfg)
	if err != nil {
		return MemLifeRow{}, err
	}
	defer env.Close()
	ms, _ := timeIt(reps, func() int {
		n := 0
		for _, qid := range ssb.QueryIDs {
			r, _, e := ds.RunQPPT(context.Background(), env, qid, ssb.DefaultPlanOptions(), exec)
			if e != nil {
				err = e
				return 0
			}
			n += len(r.Rows)
		}
		return n
	})
	if err != nil {
		return MemLifeRow{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	thawRead, reused, saved, err := memLifeSuite(ds, env, exec)
	if err != nil {
		return MemLifeRow{}, err
	}
	runtime.ReadMemStats(&after)
	return MemLifeRow{
		Config:        name,
		Millis:        ms,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		Allocs:        after.Mallocs - before.Mallocs,
		GCPauseNs:     after.PauseTotalNs - before.PauseTotalNs,
		NumGC:         after.NumGC - before.NumGC,
		ThawBytesRead: thawRead,
		ChunksReused:  reused,
		SavedBytes:    saved,
	}, nil
}

// A FusionRow is one SSB query of the pipeline-fusion ablation: the query
// run with fusion on and off, with the fused-path counters and a
// bit-identity check against the materialized result.
type FusionRow struct {
	Query          string  `json:"query"`
	FusedMillis    float64 `json:"fusedMillis"`    // fusion on, best of reps
	UnfusedMillis  float64 `json:"unfusedMillis"`  // fusion off (every edge materialized)
	FusedEdges     int     `json:"fusedEdges"`     // intermediate indexes skipped
	TuplesStreamed int     `json:"tuplesStreamed"` // combinations forwarded instead of indexed
	Identical      bool    `json:"identical"`      // fused rows == materialized rows
}

// AblationFusion compares fused and materialized execution of the whole
// SSB suite on the decomposed (plain, no select-join) plans — the shape
// where every query carries at least one single-consumer selection→join
// edge, so fusion applies to all thirteen queries. Each row records both
// timings, how many intermediate indexes fusion skipped, how many
// combinations streamed through the fused pipelines instead of being
// indexed, and whether the fused result was bit-identical to the
// materialized one.
func AblationFusion(ds *ssb.Dataset, reps int) ([]FusionRow, error) {
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var out []FusionRow
	for _, qid := range ssb.QueryIDs {
		// Zero-value PlanOptions is the decomposed plan shape
		// (UseSelectJoin false); only exec.NoFuse varies between the rows.
		run := func(exec core.Options) (rows [][]uint64, stats *core.PlanStats, err error) {
			r, st, e := ds.RunQPPT(context.Background(), env, qid, ssb.PlanOptions{}, exec)
			if e != nil {
				return nil, nil, fmt.Errorf("bench: Q%s (%+v): %w", qid, exec, e)
			}
			return r.Rows, st, nil
		}
		// The decomposed plan shape provisions its own base indexes
		// lazily; warm them outside the timed region so the first
		// configuration measured does not pay the builds.
		if _, _, err := run(core.Options{}); err != nil {
			return nil, err
		}
		var err error
		fusedMs, _ := timeIt(reps, func() int {
			r, _, e := run(core.Options{})
			if e != nil {
				err = e
				return 0
			}
			return len(r)
		})
		if err != nil {
			return nil, err
		}
		unfusedMs, _ := timeIt(reps, func() int {
			r, _, e := run(core.Options{NoFuse: true})
			if e != nil {
				err = e
				return 0
			}
			return len(r)
		})
		if err != nil {
			return nil, err
		}
		// One stats pass supplies the fused counters and the identity check.
		fused, stats, err := run(core.Options{CollectStats: true})
		if err != nil {
			return nil, err
		}
		materialized, _, err := run(core.Options{NoFuse: true})
		if err != nil {
			return nil, err
		}
		streamed := 0
		for _, op := range stats.Ops {
			streamed += op.TuplesStreamed
		}
		out = append(out, FusionRow{
			Query: qid, FusedMillis: fusedMs, UnfusedMillis: unfusedMs,
			FusedEdges: stats.FusedEdges, TuplesStreamed: streamed,
			Identical: reflect.DeepEqual(fused, materialized),
		})
	}
	return out, nil
}

// A ProbeRow is one SSB query of the batched-probe ablation: the fused
// decomposed plan run with batched (default) and scalar (ProbeBatch 1)
// probe forwarding, against the fully materialized execution, with the
// batch counters and a bit-identity check.
type ProbeRow struct {
	Query              string  `json:"query"`
	BatchedMillis      float64 `json:"batchedMillis"`      // fused, batched forwarding (default)
	ScalarMillis       float64 `json:"scalarMillis"`       // fused, ProbeBatch 1
	MaterializedMillis float64 `json:"materializedMillis"` // NoFuse
	ProbeBatches       int     `json:"probeBatches"`       // batches flushed through the fused chains
	AvgBatchFill       float64 `json:"avgBatchFill"`       // combinations per batch
	Identical          bool    `json:"identical"`          // batched rows == materialized rows
}

// AblationProbe isolates the batch-probe amortization inside fused
// chains on the decomposed SSB plans: batched forwarding sorts each probe
// buffer so upper links' LookupBatch walks shared tree descents once per
// distinct key, where scalar forwarding (ProbeBatch 1) descends per
// combination — the paper's vector-at-a-time claim applied inside a
// pipeline. The materialized column anchors both against no fusion at
// all. The join-heavy flights 2–4 are where batching should win; flight 1
// chains are selection-only and mostly shrug.
func AblationProbe(ds *ssb.Dataset, reps int) ([]ProbeRow, error) {
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var out []ProbeRow
	for _, qid := range ssb.QueryIDs {
		run := func(exec core.Options) (rows [][]uint64, stats *core.PlanStats, err error) {
			r, st, e := ds.RunQPPT(context.Background(), env, qid, ssb.PlanOptions{}, exec)
			if e != nil {
				return nil, nil, fmt.Errorf("bench: Q%s (%+v): %w", qid, exec, e)
			}
			return r.Rows, st, nil
		}
		// Warm the lazily provisioned base indexes outside the timed region.
		if _, _, err := run(core.Options{}); err != nil {
			return nil, err
		}
		var err error
		time := func(exec core.Options) float64 {
			ms, _ := timeIt(reps, func() int {
				r, _, e := run(exec)
				if e != nil {
					err = e
					return 0
				}
				return len(r)
			})
			return ms
		}
		batchedMs := time(core.Options{})
		scalarMs := time(core.Options{ProbeBatch: 1})
		materializedMs := time(core.Options{NoFuse: true})
		if err != nil {
			return nil, err
		}
		// One stats pass supplies the batch counters and the identity check.
		batched, stats, err := run(core.Options{CollectStats: true})
		if err != nil {
			return nil, err
		}
		materialized, _, err := run(core.Options{NoFuse: true})
		if err != nil {
			return nil, err
		}
		batches, streamed := 0, 0
		for _, op := range stats.Ops {
			batches += op.ProbeBatches
			streamed += op.TuplesStreamed
		}
		fill := 0.0
		if batches > 0 {
			fill = float64(streamed) / float64(batches)
		}
		out = append(out, ProbeRow{
			Query: qid, BatchedMillis: batchedMs, ScalarMillis: scalarMs,
			MaterializedMillis: materializedMs,
			ProbeBatches:       batches, AvgBatchFill: fill,
			Identical: reflect.DeepEqual(batched, materialized),
		})
	}
	return out, nil
}

// A KernelRow is one SSB query of the SWAR-kernel ablation: the fused
// batched plan with the word-parallel kernels active (default) vs forced
// through the scalar fallback (kernel.ForceGeneric — the -nokernel path)
// vs fully materialized, with the descent-strategy counters and a
// three-way bit-identity check.
type KernelRow struct {
	Query              string  `json:"query"`
	KernelMillis       float64 `json:"kernelMillis"`       // fused+batched, SWAR kernels
	ScalarMillis       float64 `json:"scalarMillis"`       // fused+batched, generic fallback
	MaterializedMillis float64 `json:"materializedMillis"` // NoFuse
	KernelDescents     int     `json:"kernelDescents"`     // batched lookups via the SWAR descent
	ScalarDescents     int     `json:"scalarDescents"`     // batched lookups via the scalar job loop
	Identical          bool    `json:"identical"`          // kernel rows == scalar rows == materialized rows
}

// AblationKernel isolates the SWAR batch kernels on the decomposed SSB
// plans: same fused batched execution, with the level-synchronous kernel
// descent and selection-vector predicate filters either active or forced
// through the scalar fallback oracle, anchored against no fusion at all.
// Identity across all three legs is the safety claim (the kernels are
// bit-transparent); kernel <= scalar on the probe-heavy flights 2-4 is
// the performance claim.
func AblationKernel(ds *ssb.Dataset, reps int) ([]KernelRow, error) {
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var out []KernelRow
	for _, qid := range ssb.QueryIDs {
		run := func(exec core.Options) (rows [][]uint64, stats *core.PlanStats, err error) {
			r, st, e := ds.RunQPPT(context.Background(), env, qid, ssb.PlanOptions{}, exec)
			if e != nil {
				return nil, nil, fmt.Errorf("bench: Q%s (%+v): %w", qid, exec, e)
			}
			return r.Rows, st, nil
		}
		// Warm the lazily provisioned base indexes outside the timed region.
		if _, _, err := run(core.Options{}); err != nil {
			return nil, err
		}
		var err error
		time := func(exec core.Options) float64 {
			ms, _ := timeIt(reps, func() int {
				r, _, e := run(exec)
				if e != nil {
					err = e
					return 0
				}
				return len(r)
			})
			return ms
		}
		kernelMs := time(core.Options{})
		restore := kernel.ForceGeneric()
		scalarMs := time(core.Options{})
		scalarRows, _, serr := run(core.Options{})
		restore()
		if err == nil {
			err = serr
		}
		materializedMs := time(core.Options{NoFuse: true})
		if err != nil {
			return nil, err
		}
		// One stats pass supplies the descent counters and the identity check.
		kernelRows, stats, err := run(core.Options{CollectStats: true})
		if err != nil {
			return nil, err
		}
		materialized, _, err := run(core.Options{NoFuse: true})
		if err != nil {
			return nil, err
		}
		kd, sd := 0, 0
		for _, op := range stats.Ops {
			kd += op.KernelDescents
			sd += op.ScalarDescents
		}
		out = append(out, KernelRow{
			Query: qid, KernelMillis: kernelMs, ScalarMillis: scalarMs,
			MaterializedMillis: materializedMs,
			KernelDescents:     kd, ScalarDescents: sd,
			Identical: reflect.DeepEqual(kernelRows, scalarRows) &&
				reflect.DeepEqual(kernelRows, materialized),
		})
	}
	return out, nil
}

// A BatchRow is one point of the batch-size sweep (paper Section 2.3).
type BatchRow struct {
	BatchSize int
	LookupNs  float64
}

// AblationBatchSize sweeps the KISS-Tree batch lookup size on a large
// tree; batch size 1 degenerates to scalar lookups.
func AblationBatchSize(n int) []BatchRow {
	keys := fig3Keys(n, 47)
	t := kisstree.MustNew(kisstree.Config{})
	for _, k := range keys {
		t.Insert(k, nil)
	}
	probes := fig3Keys(n, 49)
	var out []BatchRow
	for _, bs := range []int{1, 16, 64, 256, 512, 1024, 4096} {
		ns := timePerKey(n, func() {
			if bs == 1 {
				for _, k := range probes {
					if lf := t.Lookup(k); lf != nil {
						sink += lf.Key
					}
				}
				return
			}
			for off := 0; off < len(probes); off += bs {
				end := min(off+bs, len(probes))
				t.LookupBatch(probes[off:end], func(i int, lf *kisstree.Leaf) {
					if lf != nil {
						sink += lf.Key
					}
				})
			}
		})
		out = append(out, BatchRow{BatchSize: bs, LookupNs: ns})
	}
	return out
}

// WarmupQueries runs each query once per engine so that Figure 7 timings
// exclude one-time costs (lazy index builds).
func WarmupQueries(ds *ssb.Dataset, env *core.Env) error {
	for _, qid := range ssb.QueryIDs {
		if _, _, err := ds.RunQPPT(context.Background(), env, qid, ssb.DefaultPlanOptions(), core.Options{}); err != nil {
			return err
		}
		if _, err := ds.RunColumn(qid); err != nil {
			return err
		}
		if _, err := ds.RunVector(qid); err != nil {
			return err
		}
	}
	return nil
}
