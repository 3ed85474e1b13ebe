package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"qppt/internal/arena/arenatest"
)

// denseTable is a base index keyed on the row id whose payload holds three
// group attributes, a, b and c, and a measure v.
type denseTable struct {
	t    *IndexedTable
	rows [][4]uint64 // a, b, c, v
}

// newDenseTable draws n rows whose group attributes lie in doms.
func newDenseTable(rng *rand.Rand, n int, doms [3]KeyRange) *denseTable {
	idx := NewIndex(IndexConfig{KeyBits: 20, PayloadWidth: 4})
	d := &denseTable{}
	for id := 0; id < n; id++ {
		var r [4]uint64
		for i, dom := range doms {
			r[i] = dom.Lo + uint64(rng.Int63n(int64(dom.Hi-dom.Lo+1)))
		}
		r[3] = uint64(rng.Intn(1000))
		idx.Insert(uint64(id), r[:])
		d.rows = append(d.rows, r)
	}
	d.t = NewIndexedTable("rows[id]", SimpleKey("id", 20), []string{"a", "b", "c", "v"}, idx)
	return d
}

// spec is the folding output grouped on the first len(doms) attributes of
// a, b and c with width measures: sum(v), count, sum(v+1). domain sets its
// Domain, the dense fold's premise, to doms.
func (d *denseTable) spec(doms []KeyRange, width int, domain bool) OutputSpec {
	attrs := []string{"a", "b", "c"}[:len(doms)]
	out := OutputSpec{Name: "Γ"}
	for i, a := range attrs {
		out.Key.Attrs = append(out.Key.Attrs, a)
		out.Key.Bits = append(out.Key.Bits, uint(max(bits.Len64(doms[i].Hi+64), 1)))
		out.KeyRefs = append(out.KeyRefs, Ref{Input: 0, Attr: a})
	}
	v := CtxOffsets([]*IndexedTable{d.t}, Ref{Input: 0, Attr: "v"})[0]
	measures := []RowExpr{
		Attr(0, "v"),
		Computed(func([]uint64) uint64 { return 1 }),
		Computed(func(ctx []uint64) uint64 { return ctx[v] + 1 }),
	}
	folds := make([]int, width)
	for i := range folds {
		out.Cols = append(out.Cols, fmt.Sprintf("m%d", i))
		out.ColExprs = append(out.ColExprs, measures[i])
		folds[i] = i
	}
	out.Fold = FoldSum(folds...)
	if domain {
		out.Domain = doms
	}
	return out
}

// want is the reference answer of spec over the rows, in key order: the
// group attributes, then the measures.
func (d *denseTable) want(nAttrs, width int) [][]uint64 {
	groups := map[[3]uint64][]uint64{}
	for _, r := range d.rows {
		var g [3]uint64
		copy(g[:nAttrs], r[:nAttrs])
		m := groups[g]
		if m == nil {
			m = make([]uint64, width)
			groups[g] = m
		}
		for i, x := range []uint64{r[3], 1, r[3] + 1}[:width] {
			m[i] += x
		}
	}
	var rows [][]uint64
	for g, m := range groups {
		rows = append(rows, append(slices.Clone(g[:nAttrs]), m...))
	}
	slices.SortFunc(rows, slices.Compare[[]uint64])
	return rows
}

// TestDenseFoldMatchesTree: a folding output with a small key domain
// aggregates in a flat array and answers what the index fold answers, and
// both what a map of the rows says, in key order. The domains hold 1,
// cap−1, cap and cap+1 slots (the last folds into the index), over one and
// three key attributes, with payloads 0, 1 and 3 wide, on 1, 2 and 4
// workers, and on 2 workers under a one-byte budget. Every pooled chunk
// handed out again must be zero.
func TestDenseFoldMatchesTree(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	rng := rand.New(rand.NewSource(45))
	envs := map[string]*Env{}
	for _, cfg := range []EnvConfig{{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 2, MemBudget: 1}} {
		envs[fmt.Sprintf("workers %d budget %d", cfg.Workers, cfg.MemBudget)] = newTestEnv(t, cfg)
	}
	r := func(lo, span uint64) KeyRange { return KeyRange{Lo: lo, Hi: lo + span - 1} }
	cases := []struct {
		name string
		doms []KeyRange
	}{
		{"one attribute, 1 slot", []KeyRange{r(7, 1)}},
		{"one attribute, cap-1 slots", []KeyRange{r(3, denseCap-1)}},
		{"one attribute, cap slots", []KeyRange{r(0, denseCap)}},
		{"one attribute, cap+1 slots", []KeyRange{r(5, denseCap+1)}},
		{"three attributes, 1 slot", []KeyRange{r(2, 1), r(0, 1), r(9, 1)}},
		{"three attributes, cap-1 slots", []KeyRange{r(1, 15), r(4, 17), r(0, 257)}},
		{"three attributes, cap slots", []KeyRange{r(3, 16), r(0, 64), r(10, 64)}},
		{"three attributes, cap+1 slots", []KeyRange{r(0, 1), r(6, 1), r(1, denseCap+1)}},
	}
	for _, tc := range cases {
		doms := [3]KeyRange{r(0, 1), r(0, 1), r(0, 1)}
		copy(doms[:], tc.doms)
		tb := newDenseTable(rng, 10000, doms)
		slots := uint64(1)
		for _, d := range tc.doms {
			slots *= d.Hi - d.Lo + 1
		}
		if slots > denseCap {
			slots = 0
		}
		for _, width := range []int{0, 1, 3} {
			want := tb.want(len(tc.doms), width)
			for name, env := range envs {
				for _, dense := range []bool{true, false} {
					spec := tb.spec(tc.doms, width, dense)
					plan := &Plan{Root: &Selection{Input: &Base{Table: tb.t}, Out: spec}}
					out, stats, err := env.Run(context.Background(), plan, Options{CollectStats: true})
					if err != nil {
						t.Fatalf("%s, width %d, %s: %v", tc.name, width, name, err)
					}
					got := Extract(out).Rows
					out.Release()
					if !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("%s, width %d, %s, dense %t: %d rows, want %d\n got %v\nwant %v",
							tc.name, width, name, dense, len(got), len(want), got[:min(len(got), 4)], want[:min(len(want), 4)])
					}
					op := stats.Ops[len(stats.Ops)-1]
					if wantSlots := map[bool]int{true: int(slots)}[dense]; op.Slots != wantSlots || op.TuplesIndexed != len(tb.rows) {
						t.Errorf("%s, width %d, %s, dense %t: %d slots and %d tuples indexed, want %d and %d",
							tc.name, width, name, dense, op.Slots, op.TuplesIndexed, wantSlots, len(tb.rows))
					}
				}
			}
		}
	}
}

// TestDenseFoldMergesWorkers: two workers' arrays, each holding most of
// a domain of denseCap slots, merge slot by slot into one output. The
// scan's first row waits for a second one in flight, so both workers fold
// a partial however the pool is scheduled.
func TestDenseFoldMergesWorkers(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	rng := rand.New(rand.NewSource(46))
	doms := [3]KeyRange{{Lo: 11, Hi: 11 + denseCap - 1}, {}, {}}
	tb := newDenseTable(rng, 60000, doms)
	want := tb.want(1, 1)
	env := newTestEnv(t, EnvConfig{Workers: 2})
	v := CtxOffsets([]*IndexedTable{tb.t}, Ref{Input: 0, Attr: "v"})[0]
	for run := 0; run < 2; run++ {
		var calls atomic.Int32
		met := make(chan struct{})
		spec := tb.spec(doms[:1], 1, true)
		spec.ColExprs[0] = Computed(func(ctx []uint64) uint64 { // sum(v), the hook first
			switch calls.Add(1) {
			case 1:
				select {
				case <-met:
				case <-time.After(5 * time.Second):
				}
			case 2:
				close(met)
			}
			return ctx[v]
		})
		plan := &Plan{Root: &Selection{Input: &Base{Table: tb.t}, Out: spec}}
		out, stats, err := env.Run(context.Background(), plan, Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if op := stats.Ops[0]; op.Workers != 2 || op.Slots != denseCap {
			t.Fatalf("[%d workers, %d slots], want [2 workers, %d slots]", op.Workers, op.Slots, denseCap)
		}
		if got := Extract(out).Rows; !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		out.Release()
	}
}

// TestDenseFoldCancel: a query cancelled while its workers fold into
// their arrays returns the context's error and leaves no helper running.
func TestDenseFoldCancel(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	rng := rand.New(rand.NewSource(47))
	doms := [3]KeyRange{{Lo: 0, Hi: 999}, {}, {}}
	tb := newDenseTable(rng, 200000, doms)
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		spec := tb.spec(doms[:1], 1, true)
		var fed atomic.Int64
		spec.ColExprs[0] = Computed(func([]uint64) uint64 {
			if fed.Add(1) == 5000 {
				cancel()
			}
			return 1
		})
		env := newTestEnv(t, EnvConfig{Workers: workers})
		plan := &Plan{Root: &Selection{Input: &Base{Table: tb.t}, Out: spec}}
		out, _, err := env.Run(ctx, plan, Options{})
		cancel()
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("workers %d: Run returned %v, %v; want context.Canceled", workers, out, err)
		}
	}
}

// TestDenseSlotOutsideDomainPanics: a value outside the Domain the plan
// promised is a planning error, not a row to drop or misplace.
func TestDenseSlotOutsideDomainPanics(t *testing.T) {
	spec := &OutputSpec{Name: "Γ", Key: KeySpec{Attrs: []string{"a"}, Bits: []uint{8}}, Domain: []KeyRange{{Lo: 10, Hi: 19}}}
	d := &denseFold{spec: spec}
	if s := d.slot([]uint64{13}, []int{0}); s != 3 {
		t.Fatalf("slot of 13 in [10, 19] is %d, want 3", s)
	}
	for _, v := range []uint64{9, 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slot of %d in [10, 19] did not panic", v)
				}
			}()
			d.slot([]uint64{v}, []int{0})
		}()
	}
}
