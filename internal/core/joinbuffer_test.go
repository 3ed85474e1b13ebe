package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	cols []string
	rows [][]uint64
	pt   bool // index in a prefix tree instead of a KISS-Tree
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
	if tb.pt {
		idx = prefixtree.MustNew(prefixtree.Config{KeyBits: 16, PayloadWidth: len(tb.cols)})
	} else {
		idx = NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: len(tb.cols)})
	}
	for _, r := range tb.rows {
		idx.Insert(r[0], r[1:])
	}
	return NewIndexedTable(name, SimpleKey("k", 16), tb.cols, idx)
}

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

// jbCase is one star-join operator over jbTables. A select-join scans
// input 0 under pred and probes input 1 (the fact side) with mainWith; a
// join synchronously scans inputs 0 (the fact side) and 1. Assist i is
// input 2+i, probed with probes[i]. A residual keeps combinations whose
// residual attribute is even, right after the main match.
type jbCase struct {
	join     bool
	tables   []*jbTable
	pred     KeyPred
	mainWith Ref
	probes   []Ref
	residual *Ref
	outKey   Ref
}

func (c *jbCase) plan() *Plan {
	inputs := make([]*IndexedTable, len(c.tables))
	for i, tb := range c.tables {
		inputs[i] = tb.indexed(fmt.Sprintf("t%d", i))
	}
	out := OutputSpec{Name: "out", Key: SimpleKey("out", 16), KeyRefs: []Ref{c.outKey}}
	for i, tb := range c.tables {
		for _, a := range append([]string{"k"}, tb.cols...) {
			out.Cols = append(out.Cols, fmt.Sprintf("%d.%s", i, a))
			out.ColExprs = append(out.ColExprs, Attr(i, a))
		}
	}
	var residual func([]uint64) bool
	if c.residual != nil {
		off := CtxOffsets(inputs, *c.residual)[0]
		residual = func(ctx []uint64) bool { return ctx[off]%2 == 0 }
	}
	var assists []Assist
	for i, r := range c.probes {
		assists = append(assists, Assist{Input: &Base{Table: inputs[2+i]}, ProbeWith: r})
	}
	if c.join {
		return &Plan{Root: &Join{
			Left: &Base{Table: inputs[0]}, Right: &Base{Table: inputs[1]},
			Assists: assists, Residual: residual, Out: out,
		}}
	}
	return &Plan{Root: &SelectJoin{
		SelInput: &Base{Table: inputs[0]}, Pred: c.pred,
		Main: &Base{Table: inputs[1]}, ProbeMainWith: c.mainWith, MainResidual: residual,
		Assists: assists, Out: out,
	}}
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
		for _, r := range c.tables[2+i].lookup(val(c.probes[i])) {
			combo[2+i] = r
			assist(i + 1)
		}
	}
	matched := func() {
		if c.residual == nil || val(*c.residual)%2 == 0 {
			assist(0)
		}
	}
	if c.join {
		for _, l := range c.tables[0].scan() {
			combo[0] = l
			for _, r := range c.tables[1].lookup(l[0]) {
				combo[1] = r
				matched()
			}
		}
	} else {
		for _, s := range c.tables[0].scan() {
			if s[0] < c.pred[0].Lo || s[0] > c.pred[0].Hi {
				continue
			}
			combo[0] = s
			for _, m := range c.tables[1].lookup(val(c.mainWith)) {
				combo[1] = m
				matched()
			}
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
		if s[0] < c.pred[0].Lo || s[0] > c.pred[0].Hi {
			continue
		}
		for _, m := range c.tables[1].lookup(s[c.tables[0].attr(c.mainWith.Attr)]) {
			keys = append(keys, m[c.tables[1].attr(c.probes[0].Attr)])
		}
	}
	return keys
}

// jbShape picks a case's shape; the rows come from the random source.
type jbShape struct {
	join     bool
	mainRows int // max rows per key of the fact side (input 1 of a select-join)
	assists  []jbAssist
	residual bool
	keys     int // key space of every table
}

// jbAssist is one assist: up to rows rows per key, width payload columns,
// probed with column c0 of the previous assist instead of a fact column.
// set picks which keys the assist holds.
type jbAssist struct {
	rows, width int
	fromPrev    bool
	set         keySet
}

// A keySet picks the keys of an assist. A sparse assist holds keys of a
// narrow sub-range with holes, so its probe keys fall below its Min, above
// its Max and into its holes — the three ways a late stage's key filter
// rejects a key; an empty assist rejects every key.
type keySet int

const (
	denseSet keySet = iota
	sparseSet
	emptySet
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
	tb.rows = slices.DeleteFunc(tb.rows, func(r []uint64) bool { return !present[r[0]] })
	for _, k := range []uint64{lo, lo + w - 1} {
		if tb.lookup(k) == nil {
			row := []uint64{k}
			for range cols {
				row = append(row, uint64(rng.Intn(keys)))
			}
			tb.rows = append(tb.rows, row)
		}
	}
	return tb
}

func (sh jbShape) build(rng *rand.Rand) *jbCase {
	fact := randTable(rng, sh.keys, sh.mainRows, "c0", "c1", "c2")
	other := randTable(rng, sh.keys, 3, "c0")
	c := &jbCase{join: sh.join}
	factOrd := 1
	if sh.join {
		factOrd = 0
		c.tables = []*jbTable{fact, other}
	} else {
		c.tables = []*jbTable{other, fact}
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
		}
		probe := Ref{Input: factOrd, Attr: fmt.Sprintf("c%d", rng.Intn(3))}
		if a.fromPrev && i > 0 && sh.assists[i-1].width > 0 {
			probe = Ref{Input: 2 + i - 1, Attr: "c0"}
		}
		c.probes = append(c.probes, probe)
	}
	if sh.residual {
		c.residual = &Ref{Input: factOrd, Attr: "c1"}
	}
	c.outKey = Ref{Input: factOrd, Attr: "c2"}
	return c
}

// runJB runs the case's plan and returns its output rows in Extract order.
func runJB(t testing.TB, c *jbCase, workers, bufSize int) [][]uint64 {
	rows, _ := runJBStats(t, c, workers, bufSize)
	return rows
}

// runJBStats is runJB that also returns the operator's statistics.
func runJBStats(t testing.TB, c *jbCase, workers, bufSize int) ([][]uint64, OperatorStats) {
	t.Helper()
	out, stats, err := newTestEnv(t, EnvConfig{Workers: workers}).Run(context.Background(), c.plan(), Options{BufferSize: bufSize, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	return Extract(out).Rows, stats.Ops[0]
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
		{"fan-out after a fan-out", jbShape{mainRows: 4, assists: []jbAssist{{rows: 3, width: 1}, {rows: 3, width: 2, fromPrev: true}, {rows: 1, width: 1}}}},
		{"width-0 assist with multiplicity", jbShape{mainRows: 3, assists: []jbAssist{{rows: 3, width: 0}, {rows: 1, width: 1}}}},
		{"main residual", jbShape{mainRows: 5, residual: true, assists: []jbAssist{{rows: 1, width: 1}, {rows: 2, width: 1}}}},
		{"join with assists", jbShape{join: true, mainRows: 3, assists: []jbAssist{{rows: 2, width: 1}, {rows: 2, width: 1, fromPrev: true}}}},
		// The first assist of a select-join is a late stage; a sparse one
		// gets a key filter whose span is one bitmap word.
		{"filtered late stage", jbShape{mainRows: 6, keys: 128, assists: []jbAssist{{rows: 3, width: 1, set: sparseSet}, {rows: 2, width: 2}}}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.shape.keys == 0 {
				tc.shape.keys = 64
			}
			c := tc.shape.build(rand.New(rand.NewSource(int64(i + 1))))
			// A select-join's sparse first assist must filter probe keys:
			// some below its Min, one just past its Max, some in its holes.
			filtered := !tc.shape.join && tc.shape.assists[0].set == sparseSet
			if filtered {
				checkFilteredProbes(t, c.tables[2], c.firstProbes())
			}
			want := c.want()
			if len(want) < 100 {
				t.Fatalf("the fixture produces only %d rows", len(want))
			}
			for _, bs := range []int{1, 2, 3, 64, 512} {
				got, st := runJBStats(t, c, 1, bs)
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
		if s[0] >= c.pred[0].Lo && s[0] <= c.pred[0].Hi {
			fanned += len(c.tables[1].lookup(s[c.tables[0].attr(c.mainWith.Attr)]))
		}
	}
	if fanned == 0 {
		t.Fatal("the fixture's main probe finds no fact rows")
	}
	for _, workers := range []int{1, 2} {
		for _, bs := range []int{1, 3, 512} {
			rows, st := runJBStats(t, c, workers, bs)
			if len(rows) != 0 {
				t.Fatalf("Workers %d BufferSize %d: %d rows from an empty assist", workers, bs, len(rows))
			}
			if st.ProbeFiltered != fanned {
				t.Errorf("Workers %d BufferSize %d: ProbeFiltered = %d, want %d", workers, bs, st.ProbeFiltered, fanned)
			}
		}
	}
}

// FuzzJoinbuffer checks random star joins — tables with 0–3 rows per key,
// payload widths 0–2, 1–3 assists, dense, sparse or empty, an optional
// residual, buffer sizes 1–8 — against the nested-loop reference, order
// included. A sparse or empty first assist of a select-join is a late
// stage with a key filter.
func FuzzJoinbuffer(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(0x0b), uint8(2))
	f.Add(int64(3), uint8(0x1c), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, shape, buf uint8) {
		rng := rand.New(rand.NewSource(seed))
		sh := jbShape{join: shape&1 != 0, mainRows: 3, residual: shape&8 != 0, keys: 12}
		for i := 0; i < 1+int(shape>>1)%3; i++ {
			a := jbAssist{rows: 1 + rng.Intn(3), width: rng.Intn(3), fromPrev: rng.Intn(2) == 0}
			switch rng.Intn(6) {
			case 0, 1:
				a.set = sparseSet
			case 2:
				a.set = emptySet
			}
			sh.assists = append(sh.assists, a)
		}
		c := sh.build(rng)
		bs := 1 + int(buf%8)
		if got, want := runJB(t, c, 1, bs), c.want(); !sameRows(got, want) {
			t.Fatalf("BufferSize %d: got %d rows %v, want %d rows %v", bs, len(got), got, len(want), want)
		}
	})
}
