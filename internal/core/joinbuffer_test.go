package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"qppt/internal/prefixtree"
)

// The joinbuffer tests run star-join operators over small random tables and
// compare every output row, in Extract order, against a nested-loop
// reference built from the raw rows. The outputs never fold and their key
// has few distinct values, so the duplicate order under each key — the
// order the sink inserted combinations in — is part of what is compared.

// jbTable is one operator input: rows in insertion order, each [k, c0, …].
type jbTable struct {
	cols   []string
	rows   [][]uint64
	pt     bool // index in a prefix tree instead of a KISS-Tree
	wide   bool // a 40-bit key instead of a 16-bit one
	sorted bool // bulk-loaded as a base index is: a key's rows are one run
	tight  bool // its index reports a footprint one word short of its value arrays
}

// bits returns the width of the table's key.
func (tb *jbTable) bits() uint {
	if tb.wide {
		return 40
	}
	return 16
}

// attr returns the position of attribute a in a row.
func (tb *jbTable) attr(a string) int {
	if a == "k" {
		return 0
	}
	return 1 + slices.Index(tb.cols, a)
}

func (tb *jbTable) indexed(name string) *IndexedTable {
	var idx Index
	if tb.sorted {
		var keys []uint64
		var ends []int
		var rows []uint64
		for _, r := range tb.scan() {
			if len(keys) == 0 || keys[len(keys)-1] != r[0] {
				keys = append(keys, r[0])
				ends = append(ends, 0)
			}
			rows = append(rows, r[1:]...)
			ends[len(ends)-1] = len(rows) / len(tb.cols)
		}
		idx = NewSortedIndex(IndexConfig{KeyBits: tb.bits(), PayloadWidth: len(tb.cols)}, keys, ends, rows)
	} else {
		if tb.pt {
			idx = prefixtree.MustNew(prefixtree.Config{KeyBits: tb.bits(), PayloadWidth: len(tb.cols)})
		} else {
			idx = NewIndex(IndexConfig{KeyBits: tb.bits(), PayloadWidth: len(tb.cols)})
		}
		for _, r := range tb.rows {
			idx.Insert(r[0], r[1:])
		}
	}
	if lo, hi, ok := idxBounds(idx); ok && tb.tight {
		idx = sizedIndex{idx, 8 * (int(hi-lo+1)*len(tb.cols) - 1)}
	}
	return NewIndexedTable(name, SimpleKey("k", tb.bits()), tb.cols, idx)
}

// sizedIndex is an index that reports a footprint of bytes.
type sizedIndex struct {
	Index
	bytes int
}

func (s sizedIndex) Bytes() int { return s.bytes }

// lookup returns the rows under key k in insertion order.
func (tb *jbTable) lookup(k uint64) [][]uint64 {
	var out [][]uint64
	for _, r := range tb.rows {
		if r[0] == k {
			out = append(out, r)
		}
	}
	return out
}

// scan returns the rows in index order: by key, then in insertion order.
func (tb *jbTable) scan() [][]uint64 {
	rows := slices.Clone(tb.rows)
	slices.SortStableFunc(rows, func(a, b []uint64) int { return int(a[0]) - int(b[0]) })
	return rows
}

// jbCase is one select-join over jbTables: it scans input 0 under pred (all
// of it when pred is nil) and probes input 1, the fact side, with mainWith.
// Assist i is input 2+i, probed with the fact column probes[i]; with
// selAssists it is a selection's output over the table's index, an
// intermediate, instead of the base index itself. A residual keeps the
// fact rows whose residual attribute is even, right after the main match:
// a main predicate that lists the even values of the key space.
type jbCase struct {
	tables     []*jbTable
	keys       int // key space of every table
	pred       KeyPred
	mainWith   Ref
	probes     []string
	residual   *Ref
	outKey     Ref
	selAssists bool
	bases      []*IndexedTable // the tables' indexes, built once per case
}

// inputs returns the tables' base indexes, the same ones on every call.
func (c *jbCase) inputs() []*IndexedTable {
	if c.bases == nil {
		for i, tb := range c.tables {
			c.bases = append(c.bases, tb.indexed(fmt.Sprintf("t%d", i)))
		}
	}
	return c.bases
}

func (c *jbCase) plan() *Plan {
	inputs := c.inputs()
	out := OutputSpec{Name: "out", Key: SimpleKey("out", 16), KeyRefs: []Ref{c.outKey}}
	for i, tb := range c.tables {
		for _, a := range append([]string{"k"}, tb.cols...) {
			out.Cols = append(out.Cols, fmt.Sprintf("%d.%s", i, a))
			out.ColExprs = append(out.ColExprs, Attr(i, a))
		}
	}
	var preds []AttrPred
	if c.residual != nil {
		var evens KeyPred
		for v := 0; v < c.keys; v += 2 {
			evens = append(evens, KeyRange{Lo: uint64(v), Hi: uint64(v)})
		}
		preds = []AttrPred{{Ref: *c.residual, Pred: evens}}
	}
	var assists []Assist
	for i, r := range c.probes {
		var in Operator = &Base{Table: inputs[2+i]}
		if c.selAssists {
			t := inputs[2+i]
			o := OutputSpec{Name: "σ" + t.Name, Key: t.Key, KeyRefs: []Ref{{Input: 0, Attr: "k"}}, Cols: t.Cols}
			for _, col := range t.Cols {
				o.ColExprs = append(o.ColExprs, Attr(0, col))
			}
			in = &Selection{Input: in, Out: o}
		}
		assists = append(assists, Assist{Input: in, ProbeWith: r})
	}
	return &Plan{Root: &SelectJoin{
		SelInput: &Base{Table: inputs[0]}, Pred: c.pred,
		Main: &Base{Table: inputs[1]}, ProbeMainWith: c.mainWith, Preds: preds,
		Assists: assists, Out: out,
	}}
}

// selected reports whether the row s of input 0 passes the case's
// predicate.
func (c *jbCase) selected(s []uint64) bool {
	return c.pred == nil || s[0] >= c.pred[0].Lo && s[0] <= c.pred[0].Hi
}

// want evaluates the case as nested loops over the raw rows and returns the
// output rows in Extract order: by output key, ties in production order.
func (c *jbCase) want() [][]uint64 {
	combo := make([][]uint64, len(c.tables))
	val := func(r Ref) uint64 { return combo[r.Input][c.tables[r.Input].attr(r.Attr)] }
	var out [][]uint64
	var assist func(i int)
	assist = func(i int) {
		if i == len(c.probes) {
			row := []uint64{val(c.outKey)}
			for _, r := range combo {
				row = append(row, r...)
			}
			out = append(out, row)
			return
		}
		for _, r := range c.tables[2+i].lookup(val(Ref{Input: 1, Attr: c.probes[i]})) {
			combo[2+i] = r
			assist(i + 1)
		}
	}
	matched := func() {
		if c.residual == nil || val(*c.residual)%2 == 0 {
			assist(0)
		}
	}
	for _, s := range c.tables[0].scan() {
		if !c.selected(s) {
			continue
		}
		combo[0] = s
		for _, m := range c.tables[1].lookup(val(c.mainWith)) {
			combo[1] = m
			matched()
		}
	}
	slices.SortStableFunc(out, func(a, b []uint64) int { return int(a[0]) - int(b[0]) })
	return out
}

// firstProbes returns the keys a select-join probes its first assist with,
// one per fact row its main probe yields.
func (c *jbCase) firstProbes() []uint64 {
	var keys []uint64
	for _, s := range c.tables[0].scan() {
		if !c.selected(s) {
			continue
		}
		for _, m := range c.tables[1].lookup(s[c.tables[0].attr(c.mainWith.Attr)]) {
			keys = append(keys, m[c.tables[1].attr(c.probes[0])])
		}
	}
	return keys
}

// jbShape picks a case's shape; the rows come from the random source. A
// join is the select-join with no predicate whose driver, input 0, holds up
// to 3 rows per key and probes the fact side with its key.
type jbShape struct {
	join     bool
	mainRows int // max rows per key of the fact side, input 1
	assists  []jbAssist
	residual bool
	keys     int // key space of every table
}

// jbAssist is one assist: up to rows rows per key and width payload
// columns, probed with a random fact column, or with the previous assist's
// (sameFK: two dimensions on one foreign key). set picks which keys the
// assist holds.
type jbAssist struct {
	rows, width int
	sameFK      bool
	tight       bool // its value arrays are one word past the size rule
	set         keySet
}

// A keySet picks the keys of an assist. A sparse assist holds keys of a
// narrow sub-range with holes, so its probe keys fall below its Min, above
// its Max and into its holes — the three ways a key filter rejects a key;
// an empty assist rejects every key. A full assist holds every key of a
// sub-range, with no hole; a far one is dense but also holds a key far past
// every probe key, so its bitmap would be larger than its index.
type keySet int

const (
	denseSet keySet = iota
	sparseSet
	emptySet
	fullSet
	farSet
)

// randTable fills a table with up to maxRows rows per key (a key is absent
// one time in five) and the given payload columns, every value drawn from
// the key space so any column can serve as a foreign key.
func randTable(rng *rand.Rand, keys, maxRows int, cols ...string) *jbTable {
	tb := &jbTable{cols: cols, pt: rng.Intn(3) == 0}
	for k := 0; k < keys; k++ {
		if rng.Intn(5) == 0 {
			continue
		}
		for n := 1 + rng.Intn(maxRows); n > 0; n-- {
			row := []uint64{uint64(k)}
			for range cols {
				row = append(row, uint64(rng.Intn(keys)))
			}
			tb.rows = append(tb.rows, row)
		}
	}
	// Rows of one key arrive interleaved with other keys, as in a base
	// table loaded in row order.
	rng.Shuffle(len(tb.rows), func(i, j int) { tb.rows[i], tb.rows[j] = tb.rows[j], tb.rows[i] })
	return tb
}

// sparseTable is randTable confined to the w = min(64, keys/2) keys from
// keys/4 on: the first and last are present, the second is a hole, and the
// others are present one time in two. At 128 keys the filter's span is
// exactly one word, so a probe one past Max reads past the bitmap unless
// the span test rejects it.
func sparseTable(rng *rand.Rand, keys, maxRows int, cols ...string) *jbTable {
	tb := randTable(rng, keys, maxRows, cols...)
	lo, w := uint64(keys/4), uint64(min(64, keys/2))
	present := map[uint64]bool{lo: true, lo + w - 1: true}
	for k := lo + 2; k < lo+w-1; k++ {
		present[k] = rng.Intn(2) == 0
	}
	confine(rng, tb, keys, func(k uint64) bool { return present[k] }, lo, lo+w-1)
	return tb
}

// confine keeps the rows of tb whose key keep accepts and gives each key of
// need that has none a row, its columns drawn from the key space.
func confine(rng *rand.Rand, tb *jbTable, keys int, keep func(k uint64) bool, need ...uint64) {
	tb.rows = slices.DeleteFunc(tb.rows, func(r []uint64) bool { return !keep(r[0]) })
	for _, k := range need {
		if tb.lookup(k) == nil {
			row := []uint64{k}
			for range tb.cols {
				row = append(row, uint64(rng.Intn(keys)))
			}
			tb.rows = append(tb.rows, row)
		}
	}
}

// fillHoles confines tb to the keys [keys/4, 3·keys/4) and gives each of
// them a row: the index has no hole.
func fillHoles(rng *rand.Rand, tb *jbTable, keys int) {
	lo, hi := uint64(keys/4), uint64(3*keys/4)
	var need []uint64
	for k := lo; k < hi; k++ {
		need = append(need, k)
	}
	confine(rng, tb, keys, func(k uint64) bool { return k >= lo && k < hi }, need...)
}

// addFarKey widens tb's key to 40 bits and adds a row at key 2^39, which no
// probe reaches: a bitmap over its keys would be larger than its index.
func addFarKey(rng *rand.Rand, tb *jbTable, keys int) {
	tb.wide = true
	confine(rng, tb, keys, func(uint64) bool { return true }, 1<<39)
}

func (sh jbShape) build(rng *rand.Rand) *jbCase {
	fact := randTable(rng, sh.keys, sh.mainRows, "c0", "c1", "c2")
	other := randTable(rng, sh.keys, 3, "c0")
	c := &jbCase{tables: []*jbTable{other, fact}, keys: sh.keys, mainWith: Ref{Input: 0, Attr: "k"}}
	if !sh.join {
		c.pred = Between(uint64(rng.Intn(sh.keys/4)), uint64(sh.keys))
		c.mainWith = Ref{Input: 0, Attr: "c0"}
	}
	for i, a := range sh.assists {
		cols := []string{"c0", "c1"}[:a.width]
		switch a.set {
		case denseSet:
			c.tables = append(c.tables, randTable(rng, sh.keys, a.rows, cols...))
		case sparseSet:
			c.tables = append(c.tables, sparseTable(rng, sh.keys, a.rows, cols...))
		case emptySet:
			c.tables = append(c.tables, &jbTable{cols: cols, pt: rng.Intn(3) == 0})
		case fullSet:
			c.tables = append(c.tables, randTable(rng, sh.keys, a.rows, cols...))
			fillHoles(rng, c.tables[len(c.tables)-1], sh.keys)
		case farSet:
			c.tables = append(c.tables, randTable(rng, sh.keys, a.rows, cols...))
			addFarKey(rng, c.tables[len(c.tables)-1], sh.keys)
		}
		c.tables[len(c.tables)-1].tight = a.tight
		probe := fmt.Sprintf("c%d", rng.Intn(3))
		if a.sameFK && i > 0 {
			probe = c.probes[i-1]
		}
		c.probes = append(c.probes, probe)
	}
	if sh.residual {
		c.residual = &Ref{Input: 1, Attr: "c1"}
	}
	c.outKey = Ref{Input: 1, Attr: "c2"}
	return c
}

// runJB runs the case's plan and returns its output rows in Extract order.
func runJB(t testing.TB, c *jbCase, workers, bufSize int) [][]uint64 {
	rows, _ := runJBStats(t, c, EnvConfig{Workers: workers}, bufSize)
	return rows
}

// runJBStats is runJB in an Env built from cfg that also returns the star
// join's statistics.
func runJBStats(t testing.TB, c *jbCase, cfg EnvConfig, bufSize int) ([][]uint64, OperatorStats) {
	t.Helper()
	out, stats, err := newTestEnv(t, cfg).Run(context.Background(), c.plan(), Options{BufferSize: bufSize, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	return Extract(out).Rows, stats.Ops[len(stats.Ops)-1]
}

// sameRows reports whether got equals want row for row (both may be empty).
func sameRows(got, want [][]uint64) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// TestJoinbufferPreservesArrivalOrder pins the joinbuffer's order guarantee:
// whatever the buffer size, the sink receives combinations in nested-loop
// order, so a non-folding output holds its duplicates in that order.
func TestJoinbufferPreservesArrivalOrder(t *testing.T) {
	cases := []struct {
		name  string
		shape jbShape
	}{
		{"main probe mixing 1-row and many-row lists", jbShape{mainRows: 6, assists: []jbAssist{{rows: 1, width: 1}, {rows: 1, width: 2}}}},
		{"fan-out after a fan-out", jbShape{mainRows: 4, assists: []jbAssist{{rows: 3, width: 1}, {rows: 3, width: 2}, {rows: 1, width: 1}}}},
		{"width-0 assist with multiplicity", jbShape{mainRows: 3, assists: []jbAssist{{rows: 3, width: 0}, {rows: 1, width: 1}}}},
		{"main residual", jbShape{mainRows: 5, residual: true, assists: []jbAssist{{rows: 1, width: 1}, {rows: 2, width: 1}}}},
		{"join with assists", jbShape{join: true, mainRows: 3, assists: []jbAssist{{rows: 2, width: 1}, {rows: 2, width: 1}}}},
		// The first assist of a select-join is a late stage; a sparse one
		// gets a key filter whose span is one bitmap word.
		{"filtered late stage", jbShape{mainRows: 6, keys: 128, assists: []jbAssist{{rows: 3, width: 1, set: sparseSet}, {rows: 2, width: 2}}}},
		// A main residual is tested on each fact row before it is queued,
		// so the first assist stays late and keeps its filter.
		{"main residual and a filtered late stage", jbShape{mainRows: 6, keys: 128, residual: true, assists: []jbAssist{{rows: 3, width: 1, set: sparseSet}, {rows: 2, width: 2}}}},
		// Assists with duplicate keys keep their probe stages: a middle
		// stage's hit owns its slot and queues it onward.
		{"three probed stages", jbShape{mainRows: 4, assists: []jbAssist{{rows: 3, width: 1}, {rows: 3, width: 2}, {rows: 2, width: 1}}}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.shape.keys == 0 {
				tc.shape.keys = 64
			}
			c := tc.shape.build(rand.New(rand.NewSource(int64(i + 1))))
			// A select-join's sparse first assist must filter probe keys:
			// some below its Min, one just past its Max, some in its holes.
			filtered := tc.shape.assists[0].set == sparseSet
			if filtered {
				checkFilteredProbes(t, c.tables[2], c.firstProbes())
			}
			want := c.want()
			if len(want) < 100 {
				t.Fatalf("the fixture produces only %d rows", len(want))
			}
			for _, bs := range []int{1, 2, 3, 64, 512} {
				got, st := runJBStats(t, c, EnvConfig{Workers: 1}, bs)
				if !sameRows(got, want) {
					t.Fatalf("BufferSize %d: %d rows differ from the %d-row nested-loop reference", bs, len(got), len(want))
				}
				if filtered && st.ProbeFiltered == 0 {
					t.Fatalf("BufferSize %d: no probe key was filtered", bs)
				}
			}
			// Two workers merge per-worker partials, so only the multiset
			// of rows is defined.
			got := runJB(t, c, 2, 3)
			sortRows := func(rows [][]uint64) { slices.SortFunc(rows, slices.Compare) }
			sortRows(got)
			sortRows(want)
			if !sameRows(got, want) {
				t.Fatalf("Workers 2: %d rows differ from the %d-row reference as a multiset", len(got), len(want))
			}
		})
	}
}

// checkFilteredProbes fails unless probes hold a key below tb's smallest
// key, the key one past its largest, and a key inside its bounds that it
// lacks.
func checkFilteredProbes(t *testing.T, tb *jbTable, probes []uint64) {
	t.Helper()
	rows := tb.scan()
	lo, hi := rows[0][0], rows[len(rows)-1][0]
	var below, past, hole bool
	for _, k := range probes {
		below = below || k < lo
		past = past || k == hi+1
		hole = hole || k > lo && k < hi && tb.lookup(k) == nil
	}
	if !below || !past || !hole {
		t.Fatalf("fixture: probes of the assist over [%d, %d]: below %v, one past %v, in a hole %v", lo, hi, below, past, hole)
	}
}

// TestJoinbufferEmptyLateStage: an empty first assist of a select-join
// gets a key filter that rejects every key, so the operator issues no
// lookup into it and outputs nothing, at every buffer size and on two
// workers.
func TestJoinbufferEmptyLateStage(t *testing.T) {
	sh := jbShape{mainRows: 4, keys: 64, assists: []jbAssist{{rows: 2, width: 1, set: emptySet}, {rows: 1, width: 1}}}
	c := sh.build(rand.New(rand.NewSource(7)))
	// The main probe's hits are what the empty stage would have probed.
	fanned := 0
	for _, s := range c.tables[0].scan() {
		if c.selected(s) {
			fanned += len(c.tables[1].lookup(s[c.tables[0].attr(c.mainWith.Attr)]))
		}
	}
	if fanned == 0 {
		t.Fatal("the fixture's main probe finds no fact rows")
	}
	for _, workers := range []int{1, 2} {
		for _, bs := range []int{1, 3, 512} {
			rows, st := runJBStats(t, c, EnvConfig{Workers: workers}, bs)
			if len(rows) != 0 {
				t.Fatalf("Workers %d BufferSize %d: %d rows from an empty assist", workers, bs, len(rows))
			}
			if st.ProbeFiltered != fanned {
				t.Errorf("Workers %d BufferSize %d: ProbeFiltered = %d, want %d", workers, bs, st.ProbeFiltered, fanned)
			}
		}
	}
}

// left returns the assists a select-join's pipeline reads by position, as
// decided over the case's base indexes.
func (c *jbCase) left(t *testing.T) []int {
	t.Helper()
	p, err := c.plan().Root.(*SelectJoin).pipe(&ExecContext{}, c.inputs())
	if err != nil {
		t.Fatal(err)
	}
	p.buildKeyFilters()
	defer p.parkKeyFilters()
	kept := map[int]bool{}
	for _, st := range p.stages {
		kept[st.input] = true
	}
	var left []int
	for i := range c.probes {
		if !kept[2+i] {
			left = append(left, i)
		}
	}
	return left
}

// TestFanOutFilters holds select-joins whose assists are tested at the main
// probe's fan-out to the nested-loop reference — order included on one
// worker, as a multiset on two — at buffer sizes 1, 7 and 512, with the
// assists as base indexes (their filters kept with the table) and as
// intermediates (built per execution from the pool), with and without a
// one-byte memory budget, which spills every intermediate. An assist with
// one row per key leaves the pipeline, whether or not its index has a hole
// and whether or not it carries columns, also when a later assist probes
// with the same foreign key; one with duplicate keys, whose bitmap would be
// larger than its index, or whose value arrays would be, keeps its stage.
func TestFanOutFilters(t *testing.T) {
	only := jbAssist{rows: 1}
	cases := []struct {
		name  string
		shape jbShape
		left  []int
	}{
		{"two filter-only assists, then a carrying one", jbShape{mainRows: 6, assists: []jbAssist{only, only, {rows: 3, width: 1}}}, []int{0, 1}},
		{"zero-column assist with duplicate keys", jbShape{mainRows: 4, assists: []jbAssist{{rows: 3}, only, {rows: 1, width: 2}}}, []int{1, 2}},
		{"carrying assist with duplicate keys", jbShape{mainRows: 4, assists: []jbAssist{{rows: 3, width: 2}, {rows: 1, width: 1}}}, []int{1}},
		{"carrying assist whose arrays outgrow its index", jbShape{mainRows: 4, assists: []jbAssist{{rows: 1, width: 2, tight: true}, {rows: 1, width: 2}}}, []int{1}},
		{"filter-only assist with no hole", jbShape{mainRows: 5, assists: []jbAssist{{rows: 1, set: fullSet}, {rows: 2, width: 1}}}, []int{0}},
		{"filter-only assist whose bitmap outgrows its index", jbShape{mainRows: 5, assists: []jbAssist{{rows: 1, set: farSet}, only}}, []int{1}},
		{"fact residual and a filter-only assist", jbShape{mainRows: 6, residual: true, assists: []jbAssist{only, {rows: 2, width: 1}}}, []int{0}},
		{"assist probed with a filter-only assist's foreign key", jbShape{mainRows: 6, assists: []jbAssist{only, {rows: 2, width: 1, sameFK: true}}}, []int{0}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.shape.keys = 64
			c := tc.shape.build(rand.New(rand.NewSource(int64(i + 1))))
			if got := c.left(t); !slices.Equal(got, tc.left) {
				t.Fatalf("assists %v leave the pipeline, want %v", got, tc.left)
			}
			want := c.want()
			if len(want) < 100 {
				t.Fatalf("the fixture produces only %d rows", len(want))
			}
			sorted := slices.Clone(want)
			slices.SortFunc(sorted, slices.Compare)
			for _, sel := range []bool{false, true} {
				c.selAssists = sel
				for _, budget := range []int64{0, 1} {
					for _, workers := range []int{1, 2} {
						for _, bs := range []int{1, 7, 512} {
							got, _ := runJBStats(t, c, EnvConfig{Workers: workers, MemBudget: budget}, bs)
							exp := want
							if workers > 1 {
								slices.SortFunc(got, slices.Compare)
								exp = sorted
							}
							if !sameRows(got, exp) {
								t.Fatalf("intermediate assists %v, MemBudget %d, Workers %d, BufferSize %d: %d rows differ from the %d-row reference",
									sel, budget, workers, bs, len(got), len(exp))
							}
						}
					}
				}
			}
		})
	}
}

// TestFanOutFilterCounts pins the probe counts of a select-join with two
// filter-only assists, a gathered one that carries two columns and a
// sparse one with duplicate keys. Every fact row the main probe yields is
// tested against the four filters in assist order: the first that lacks
// its key drops it, counted once as filtered, and a row that passes all
// four is looked up in the last assist alone. The main probe looks up
// each selected row. Four plans that start at once over the same fresh
// base indexes build each filter, and the gathered assist's value arrays,
// once, and every later plan over them, with another predicate too,
// reuses them.
func TestFanOutFilterCounts(t *testing.T) {
	sh := jbShape{mainRows: 6, keys: 64, assists: []jbAssist{{rows: 1, set: sparseSet}, {rows: 1}, {rows: 1, width: 2}, {rows: 2, width: 1, set: sparseSet}}}
	c := sh.build(rand.New(rand.NewSource(11)))
	want := c.want()
	slices.SortFunc(want, slices.Compare)
	env := newTestEnv(t, EnvConfig{Workers: 2})
	var wg sync.WaitGroup
	for range 4 {
		pl := c.plan()
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, err := env.Run(context.Background(), pl, Options{BufferSize: 7})
			if err != nil {
				t.Error(err)
				return
			}
			got := Extract(out).Rows
			slices.SortFunc(got, slices.Compare)
			if !sameRows(got, want) {
				t.Errorf("a concurrent plan: %d rows differ from the %d-row reference", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	var filters []*keyFilter
	for _, in := range c.inputs()[2:] {
		if in.filter == nil {
			t.Fatalf("%s: no key filter kept with the base index", in.Name)
		}
		filters = append(filters, in.filter)
	}
	if f := filters[2]; !f.gather || len(f.vals) != int(f.n)*2 {
		t.Fatalf("%s: no value arrays kept with the base index", c.inputs()[4].Name)
	}
	lookups, filtered := 0, 0
	for _, s := range c.tables[0].scan() {
		if !c.selected(s) {
			continue
		}
		lookups++
		for _, m := range c.tables[1].lookup(s[c.tables[0].attr(c.mainWith.Attr)]) {
			pass := true
			for i, col := range c.probes {
				if pass = c.tables[2+i].lookup(m[c.tables[1].attr(col)]) != nil; !pass {
					break
				}
			}
			if pass {
				lookups++
			} else {
				filtered++
			}
		}
	}
	if filtered == 0 || lookups == 0 {
		t.Fatalf("fixture: %d lookups, %d filtered", lookups, filtered)
	}
	for _, workers := range []int{1, 2} {
		for _, bs := range []int{1, 7, 512} {
			rows, st := runJBStats(t, c, EnvConfig{Workers: workers}, bs)
			if len(rows) == 0 {
				t.Fatal("the fixture produces no row")
			}
			if st.ProbeLookups != lookups || st.ProbeFiltered != filtered {
				t.Errorf("Workers %d BufferSize %d: probes %d, filtered %d; want %d, %d",
					workers, bs, st.ProbeLookups, st.ProbeFiltered, lookups, filtered)
			}
		}
	}
	other := *c
	other.pred = Between(0, c.pred[0].Hi/2)
	runJB(t, &other, 2, 7)
	for i, in := range c.inputs()[2:] {
		if in.filter != filters[i] {
			t.Errorf("%s: a later plan built its key filter or value arrays again", in.Name)
		}
	}
}

// FuzzJoinbuffer checks random star joins — select-joins, and joins with
// no predicate whose driver has several rows per key; tables with 0–3 rows
// per key, and at times one fact key with up to 3·fanVec more in a
// bulk-loaded fact index, so that its run crosses selection-vector
// boundaries; payload widths 0–2, 1–3
// assists, dense, sparse, empty, hole-free or with a far key, as base
// indexes or intermediates, an optional fact predicate, buffer sizes 1–8 —
// against the nested-loop reference, order included. An assist with one
// row per key (rows 1) is read by position and leaves the pipeline, its
// value arrays drawn from the pool when it is an intermediate; a sparse or
// empty one with duplicate keys is a probe stage with a key filter.
func FuzzJoinbuffer(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(0x0b), uint8(2))
	f.Add(int64(3), uint8(0x1c), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, shape, buf uint8) {
		c := fuzzCase(seed, shape)
		bs := 1 + int(buf%8)
		if got, want := runJB(t, c, 1, bs), c.want(); !sameRows(got, want) {
			t.Fatalf("BufferSize %d: got %d rows %v, want %d rows %v", bs, len(got), got, len(want), want)
		}
	})
}

// fuzzCase draws FuzzJoinbuffer's case from its seed and shape.
func fuzzCase(seed int64, shape uint8) *jbCase {
	rng := rand.New(rand.NewSource(seed))
	sh := jbShape{join: shape&1 != 0, mainRows: 3, residual: shape&8 != 0, keys: 12}
	for i := 0; i < 1+int(shape>>1)%3; i++ {
		// The third draw once picked a snowflake probe; it stays, so that
		// the checked-in seeds keep their tables.
		a := jbAssist{rows: 1 + rng.Intn(3), width: rng.Intn(3)}
		rng.Intn(2)
		switch rng.Intn(6) {
		case 0, 1:
			a.set = sparseSet
		case 2:
			a.set = emptySet
		}
		sh.assists = append(sh.assists, a)
	}
	c := sh.build(rng)
	// Drawn after the case, so a seed keeps the case it had before these
	// draws: a dense assist may lose its holes or gain a far key.
	for i, a := range sh.assists {
		if a.set == denseSet {
			switch rng.Intn(4) {
			case 0:
				fillHoles(rng, c.tables[2+i], sh.keys)
			case 1:
				addFarKey(rng, c.tables[2+i], sh.keys)
			}
		}
	}
	c.selAssists = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		fact := c.tables[1]
		fact.sorted = true
		k := uint64(rng.Intn(sh.keys))
		for n := rng.Intn(3*fanVec + 1); n > 0; n-- {
			row := []uint64{k}
			for range fact.cols {
				row = append(row, uint64(rng.Intn(sh.keys)))
			}
			fact.rows = append(fact.rows, row)
		}
	}
	return c
}
