package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"time"

	"qppt/internal/admission"
	"qppt/internal/catalog"
	"qppt/internal/kernel"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
	"qppt/internal/ssb"
	"qppt/internal/wire"
)

// probeBatch is the batch size of the tree and kernel probes: the engine's
// default probe-forward batch.
const probeBatch = 512

// probeKeys caps the keys each tree probe inserts.
const probeKeys = 1 << 20

// perCall runs fn until at least 20 ms have passed and returns ns per call.
func perCall(fn func()) float64 {
	const floor = 20 * time.Millisecond
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < floor {
		fn()
		calls++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// sink keeps the probes' results alive so the calls are not optimized away.
var sink uint64

// A tree is what the insert/lookup/range probe needs of either tree kind.
type tree interface {
	InsertBatch(keys []uint64, rows [][]uint64)
	Keys() int
}

// treeTimes accumulates one tree kind's probe over several key columns.
type treeTimes struct {
	insertNs, lookupNs, rangeNs float64
	keys, ranged                float64 // keys inserted and looked up; leaves scanned
}

// probeTree inserts keys (payload: the row id) in batches, looks all of them
// up again in batches, and scans the whole key range. lookup and scan are
// the tree kind's LookupBatch and full Range; scan returns the leaves seen.
func (tt *treeTimes) probeTree(t tree, keys []uint64, lookup func(batch []uint64), scan func() int) error {
	backing := make([]uint64, probeBatch)
	rows := make([][]uint64, probeBatch)
	for i := range rows {
		rows[i] = backing[i : i+1]
	}
	t0 := time.Now()
	for at := 0; at < len(keys); at += probeBatch {
		batch := keys[at:min(at+probeBatch, len(keys))]
		for i := range batch {
			backing[i] = uint64(at + i)
		}
		t.InsertBatch(batch, rows[:len(batch)])
	}
	t1 := time.Now()
	for at := 0; at < len(keys); at += probeBatch {
		lookup(keys[at:min(at+probeBatch, len(keys))])
	}
	t2 := time.Now()
	seen := 0
	scanNs := perCall(func() { seen = scan() })
	if seen != t.Keys() {
		return fmt.Errorf("tree probe: range scan saw %d of %d keys", seen, t.Keys())
	}
	tt.insertNs += float64(t1.Sub(t0).Nanoseconds())
	tt.lookupNs += float64(t2.Sub(t1).Nanoseconds())
	tt.keys += float64(len(keys))
	tt.rangeNs += scanNs
	tt.ranged += float64(seen)
	return nil
}

func (tt treeTimes) into(values map[string]float64, kind string) {
	values[kind+".insert_ns_per_key"] = tt.insertNs / tt.keys
	values[kind+".lookup_ns_per_key"] = tt.lookupNs / tt.keys
	values[kind+".range_ns_per_key"] = tt.rangeNs / tt.ranged
}

// runProbes measures single layers in isolation, on the benchmark's data
// where the layer works on data. It does not depend on the workload and runs
// once per invocation. The freeze/thaw probe puts its file under env.out.
func runProbes(env runEnv) (map[string]metric, error) {
	ds, err := ssb.Load(ssb.GenConfig{SF: env.sf, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	values := map[string]float64{}
	lo := ds.Raw["lineorder"]

	// Trees: both kinds on real fact-table key columns — many duplicates per
	// key (custkey, orderdate) and few (partkey).
	var pt, kt treeTimes
	var freezeTree *prefixtree.Tree
	for _, col := range []string{"lo_custkey", "lo_orderdate", "lo_partkey"} {
		keys := lo[col][:min(len(lo[col]), probeKeys)]
		hi := slices.Max(keys)
		found := 0
		p := prefixtree.MustNew(prefixtree.Config{KeyBits: uint(bits.Len64(hi)), PayloadWidth: 1})
		err := pt.probeTree(p, keys,
			func(b []uint64) {
				p.LookupBatch(b, func(_ int, lf *prefixtree.Leaf) {
					if lf != nil {
						found++
					}
				})
			},
			func() (n int) { p.Range(0, hi, func(*prefixtree.Leaf) bool { n++; return true }); return n })
		if err != nil {
			return nil, err
		}
		k := kisstree.MustNew(kisstree.Config{PayloadWidth: 1})
		err = kt.probeTree(k, keys,
			func(b []uint64) {
				k.LookupBatch(b, func(_ int, lf *kisstree.Leaf) {
					if lf != nil {
						found++
					}
				})
			},
			func() (n int) { k.Range(0, hi, func(*kisstree.Leaf) bool { n++; return true }); return n })
		if err != nil {
			return nil, err
		}
		if found != 2*len(keys) {
			return nil, fmt.Errorf("tree probe on %s: %d of %d lookups hit", col, found, 2*len(keys))
		}
		if col == "lo_partkey" {
			freezeTree = p
		}
	}
	pt.into(values, "prefixtree")
	kt.into(values, "kisstree")

	// Freeze and thaw of the partkey probe tree through a file, as the spill
	// manager does it.
	f, err := os.CreateTemp(env.out, "freeze-*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	wantKeys := freezeTree.Keys()
	t0 := time.Now()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := freezeTree.Freeze(bw); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	freeze := time.Since(t0)
	size, err := f.Seek(0, 1)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := freezeTree.Thaw(bufio.NewReaderSize(f, 1<<20)); err != nil {
		return nil, err
	}
	thaw := time.Since(t0)
	if freezeTree.Keys() != wantKeys || !freezeTree.Contains(lo["lo_partkey"][0]) {
		return nil, fmt.Errorf("freeze probe: thawed tree lost keys")
	}
	values["spill.freeze_mb_s"] = float64(size) / 1e6 / freeze.Seconds()
	values["spill.thaw_mb_s"] = float64(size) / 1e6 / thaw.Seconds()

	// Kernels: fragment extraction and range mask on one probe batch, SWAR
	// and under the generic fallback.
	keys := lo["lo_orderdate"][:probeBatch]
	frags := make([]uint64, probeBatch)
	mask := make([]uint64, kernel.MaskWords(probeBatch))
	kernels := func(suffix string) {
		values["kernel.frags"+suffix] = perCall(func() { kernel.Frags(frags, keys, 8, 0xf) }) / probeBatch
		values["kernel.rangemask"+suffix] = perCall(func() { kernel.RangeMask(mask, keys, 19940101, 19941231) }) / probeBatch
		sink += frags[0] + mask[0]
	}
	kernels("_ns_per_key")
	restore := kernel.ForceGeneric()
	kernels("_generic_ns_per_key")
	restore()

	// Admission: an uncontended acquire and release.
	gate := admission.New(admission.Config{MaxPlans: 2})
	ctx := context.Background()
	var gateErr error
	values["admission.acquire_ns"] = perCall(func() {
		if err := gate.Acquire(ctx, 1); err != nil {
			gateErr = err
			return
		}
		gate.Release()
	})
	if gateErr != nil {
		return nil, gateErr
	}

	// Frame codec: build, write, read and decode one full raw row batch of
	// three columns through a buffer.
	var buf bytes.Buffer
	var codecErr error
	values["wire.frame_ns_per_row"] = perCall(func() {
		var pl wire.Payload
		pl.Uvarint(wire.RowBatchSize)
		pl.Uvarint(3)
		for i := 0; i < wire.RowBatchSize; i++ {
			pl.Uvarint(lo["lo_custkey"][i])
			pl.Uvarint(lo["lo_orderdate"][i])
			pl.Uvarint(lo["lo_revenue"][i])
		}
		buf.Reset()
		if err := wire.WriteFrame(&buf, wire.FrameRowBatch, pl.Buf); err != nil {
			codecErr = err
			return
		}
		_, p, err := wire.ReadFrame(&buf, wire.MaxServerFrame)
		if err != nil {
			codecErr = err
			return
		}
		r := wire.NewPayloadReader(p)
		for n := r.Uvarint() * r.Uvarint(); n > 0; n-- {
			sink += r.Uvarint()
		}
		if r.Err() != nil {
			codecErr = r.Err()
		}
	}) / wire.RowBatchSize
	if codecErr != nil {
		return nil, codecErr
	}

	// Catalog: build one base index no plan has asked for, and decode
	// dictionary codes of a string column.
	t0 = time.Now()
	if _, err := ds.Lineorder.BuildIndex(catalog.IndexDef{KeyCols: []string{"lo_suppkey"}, Include: []string{"lo_linenumber"}}); err != nil {
		return nil, err
	}
	values["catalog.index_build_s"] = time.Since(t0).Seconds()
	cities := ds.Raw["customer"]["c_city"]
	cities = cities[:min(len(cities), 4096)]
	values["catalog.decode_ns_per_cell"] = perCall(func() {
		for _, code := range cities {
			sink += uint64(len(ds.Customer.Decode("c_city", code)))
		}
	}) / float64(len(cities))
	return pick(probeLayer, values)
}
