package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qppt/internal/arena/arenatest"
)

// has reports whether k is a key of the filtered index: the scalar test
// the fan-out kernel's branch-free narrowing must agree with.
func (f *keyFilter) has(k uint64) bool {
	d := k - f.lo // a key below lo wraps past n
	return d < f.n && f.words[d>>6]&(1<<(d&63)) != 0
}

// fanExtremes are values at both ends of the key space, which range
// predicates near 0 and 2^64−1 must place exactly.
var fanExtremes = []uint64{0, 1, 5, 6, 1<<64 - 3, 1<<64 - 2, 1<<64 - 1}

// fanTable builds a base index keyed on k with the given columns. Key i+1
// holds 1 + runs[i] rows, bulk-loaded, so its list is the inline first row
// and then one run of runs[i] rows; row(i, j) is row j of key i+1.
func fanTable(name string, cols []string, runs []int, row func(i, j int) []uint64) *IndexedTable {
	var keys []uint64
	var ends []int
	var rows []uint64
	for i, n := range runs {
		keys = append(keys, uint64(i+1))
		for j := 0; j <= n; j++ {
			rows = append(rows, row(i, j)...)
		}
		ends = append(ends, len(rows)/len(cols))
	}
	idx := NewSortedIndex(IndexConfig{KeyBits: 16, PayloadWidth: len(cols)}, keys, ends, rows)
	return NewIndexedTable(name, SimpleKey("k", 16), cols, idx)
}

// fanValue draws a value for range predicates: random, or one of
// fanExtremes.
func fanValue(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return fanExtremes[rng.Intn(len(fanExtremes))]
	}
	return rng.Uint64()
}

// fanFact builds a fact base index keyed on k with the columns c0, c1
// (probe keys in [0, 128)) and c2 (values for range predicates, 0 and
// 2^64−1 among them), its runs as fanTable's.
func fanFact(rng *rand.Rand, runs []int) *IndexedTable {
	return fanTable("fact", []string{"c0", "c1", "c2"}, runs, func(int, int) []uint64 {
		return []uint64{uint64(rng.Intn(128)), uint64(rng.Intn(128)), fanValue(rng)}
	})
}

// fanDriver builds the driving base index keyed on k with the columns m,
// the fact key a row probes (key i+1's first row probes fact key i+1, the
// others 0, a miss, or fact key 1 or 2, one and two rows), d (values for
// range predicates, as fanFact's c2) and e (values in [0, 16) for an IN
// list), its runs as fanTable's.
func fanDriver(rng *rand.Rand, runs []int) *IndexedTable {
	return fanTable("drv", []string{"m", "d", "e"}, runs, func(i, j int) []uint64 {
		m := uint64(rng.Intn(3))
		if j == 0 {
			m = uint64(i + 1)
		}
		return []uint64{m, fanValue(rng), uint64(rng.Intn(16))}
	})
}

// keyTable returns a table keyed on k holding the given keys, rows rows
// each, with w columns v0, v1, …: row j of key k holds gatherValue(k, c)+j
// in column c.
func keyTable(name string, keys []uint64, rows, w int) *IndexedTable {
	var cols []string
	for c := range w {
		cols = append(cols, fmt.Sprintf("v%d", c))
	}
	idx := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: w})
	for _, k := range keys {
		for j := range rows {
			row := make([]uint64, w)
			for c := range row {
				row[c] = gatherValue(k, c) + uint64(j)
			}
			idx.Insert(k, row)
		}
	}
	return NewIndexedTable(name, SimpleKey("k", 16), cols, idx)
}

// gatherValue is the value of column c at key k of a keyTable: distinct
// per key and column, so a row read at the wrong position shows.
func gatherValue(k uint64, c int) uint64 { return k<<8 | uint64(c)<<4 | 1 }

// A carryKind is what follows TestFanOutKernel's filter-only assists:
// assists that carry columns, as base indexes or, pooled, as selection
// outputs over them, each probed with a fact column.
type carryKind struct {
	name   string
	tables []*IndexedTable
	probes []string
	pooled bool
	probed bool // the assist has duplicate keys and keeps its probe stage
}

// TestFanOutKernel holds the selection-vector kernel, at the fan-out and
// at the scan, to a scalar reference built on keyFilter.has and
// KeyPred.Has: the rows that reach the output, their order, the counts of
// rows the fan filters (ProbeFiltered) and the predicates
// (ResidualDropped) drop, and the lookups issued. The driver's and the
// fact's runs are 0, 1, V−1, V, V+1 and 3V+1 rows long (V = fanVec); 0–3
// filter-only assists hold sparse keys (probe keys fall below their lo,
// which wraps, and at lo+n), keys with holes over two bitmap words (probe
// keys past them read a masked-off bit of word 0), or none (n = 0). Then
// come assists that carry columns: none; one with two rows per key, which
// keeps its probe stage, so the survivors queue at stage 1 instead of
// going straight to the sink; three gathered assists of widths 1–3, as
// base indexes or pooled, whose spans start and end at a key, so fact
// keys fall below lo and past lo+n−1; or an empty gathered assist. A
// gathered assist's row is checked against a lookup of its index, and
// the select-join looks up nothing but its driving keys. The fact
// predicates are ranges at 0 and at 2^64−1, an IN list, and one on the
// fact key; the scan's are a range on a payload column, an IN list, and
// one on the driver's key with a range at 2^64−1. Every plan runs in one
// of two Envs, so each pooled selection vector and value array is handed
// out again and must come back zero. A predicate on an input past the
// fact, or on an attribute its input lacks, fails the plan.
func TestFanOutKernel(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	const V = fanVec
	rng := rand.New(rand.NewSource(1))
	runs := []int{0, 1, V - 1, V, V + 1, 3*V + 1}
	fact := fanFact(rng, runs)
	driver := fanDriver(rng, runs)
	var all, sparse, holey, wide, narrow []uint64
	for k := uint64(0); k < 128; k++ {
		all = append(all, k)
		if k >= 16 && k < 80 && (k%2 == 0 || k == 79) {
			sparse = append(sparse, k) // lo 16, n 64: a probe key of 80 is lo+n
		}
		if k < 100 && k%3 != 0 {
			holey = append(holey, k)
		}
		if k >= 5 && k <= 120 && (k%4 != 2 || k == 120) {
			wide = append(wide, k)
		}
		if k >= 30 && k <= 60 {
			narrow = append(narrow, k)
		}
	}
	tables := map[string]*IndexedTable{
		"sparse": keyTable("sparse", sparse, 1, 0),
		"holey":  keyTable("holey", holey, 1, 0),
		"empty":  keyTable("empty", nil, 1, 0),
	}
	refFilters := map[string]*keyFilter{}
	for name, tb := range tables {
		refFilters[name] = newKeyFilter(nil, tb)
	}
	gathered := []*IndexedTable{keyTable("g1", wide, 1, 1), keyTable("g2", narrow, 1, 2), keyTable("g3", wide, 1, 3)}
	gatherProbes := []string{"c0", "c1", "c1"}
	carries := []carryKind{
		{name: "none"},
		{name: "two rows per key", tables: []*IndexedTable{keyTable("dup", all, 2, 1)}, probes: []string{"c1"}, probed: true},
		{name: "gathered", tables: gathered, probes: gatherProbes},
		{name: "gathered, pooled", tables: gathered, probes: gatherProbes, pooled: true},
		{name: "empty gathered", tables: []*IndexedTable{gathered[0], keyTable("g0", nil, 1, 2)}, probes: []string{"c0", "c1"}, pooled: true},
	}
	type assist struct{ table, probe string }
	filterSets := [][]assist{
		nil,
		{{"sparse", "c0"}},
		{{"holey", "c1"}, {"sparse", "c0"}},
		{{"sparse", "c0"}, {"holey", "c1"}, {"empty", "c0"}},
	}
	on := func(input int, attr string, pred KeyPred) AttrPred {
		return AttrPred{Ref: Ref{Input: input, Attr: attr}, Pred: pred}
	}
	predSets := [][]AttrPred{
		nil,
		{on(1, "c2", KeyPred{{Lo: 0, Hi: 5}})},
		{on(1, "c2", KeyPred{{Lo: 1<<64 - 3, Hi: 1<<64 - 1}})},
		{on(1, "c0", KeyPred{{Lo: 3, Hi: 3}, {Lo: 9, Hi: 11}, {Lo: 40, Hi: 40}})},
		{on(1, "k", KeyPred{{Lo: 2, Hi: 2}, {Lo: 4, Hi: 5}}), on(1, "c2", KeyPred{{Lo: 0, Hi: 1 << 63}})},
		{on(1, "c1", KeyPred{{Lo: 1, Hi: 0}})}, // matches nothing
	}
	scanSets := [][]AttrPred{
		nil,
		{on(0, "d", KeyPred{{Lo: 0, Hi: 1 << 63}})},
		{on(0, "e", KeyPred{{Lo: 3, Hi: 3}, {Lo: 5, Hi: 7}, {Lo: 11, Hi: 11}})},
		{on(0, "k", KeyPred{{Lo: 2, Hi: 2}, {Lo: 4, Hi: 6}}), on(0, "d", KeyPred{{Lo: 1<<64 - 3, Hi: 1<<64 - 1}})},
	}
	envs := []*Env{newTestEnv(t, EnvConfig{Workers: 1}), newTestEnv(t, EnvConfig{Workers: 2})}
	for _, bad := range []AttrPred{on(1, "nope", Point(1)), on(2, "k", Point(1)), on(0, "c0", Point(1))} {
		sj := &SelectJoin{SelInput: &Base{Table: driver}, Main: &Base{Table: fact}, ProbeMainWith: Ref{Input: 0, Attr: "m"},
			Preds: []AttrPred{bad}, Assists: []Assist{{Input: &Base{Table: gathered[0]}, ProbeWith: "c1"}},
			Out: OutputSpec{Name: "out", Key: SimpleKey("out", 16), KeyRefs: []Ref{{Input: 0, Attr: "k"}}}}
		if _, _, err := envs[0].Run(context.Background(), &Plan{Root: sj}, Options{}); err == nil {
			t.Fatalf("a predicate on input %d's %q planned", bad.Ref.Input, bad.Ref.Attr)
		}
	}
	// passes reports whether the row or key value v of input passes every
	// predicate of preds on attr.
	passes := func(preds []AttrPred, input int, attr string, v uint64) bool {
		for _, p := range preds {
			if p.Ref == (Ref{Input: input, Attr: attr}) && !p.Pred.Has(v) {
				return false
			}
		}
		return true
	}
	for _, filters := range filterSets {
		for _, carry := range carries {
			for pi, factSet := range predSets {
				for si, scanSet := range scanSets {
					name := fmt.Sprintf("filters %v, carry %s, preds %d, scan preds %d", filters, carry.name, pi, si)
					inputs := []*IndexedTable{driver, fact}
					var assists []Assist
					for _, a := range filters {
						inputs = append(inputs, tables[a.table])
						assists = append(assists, Assist{Input: &Base{Table: tables[a.table]}, ProbeWith: a.probe})
					}
					out := OutputSpec{Name: "out", Key: SimpleKey("out", 16), KeyRefs: []Ref{{Input: 0, Attr: "k"}}}
					for i, cols := range [][]string{driver.Cols, {"k", "c0", "c1", "c2"}} {
						for _, c := range cols {
							out.Cols = append(out.Cols, c)
							out.ColExprs = append(out.ColExprs, Attr(i, c))
						}
					}
					for i, tb := range carry.tables {
						var in Operator = &Base{Table: tb}
						if carry.pooled {
							o := OutputSpec{Name: "σ" + tb.Name, Key: tb.Key, KeyRefs: []Ref{{Input: 0, Attr: "k"}}, Cols: tb.Cols}
							for _, c := range tb.Cols {
								o.ColExprs = append(o.ColExprs, Attr(0, c))
							}
							in = &Selection{Input: in, Out: o}
						}
						assists = append(assists, Assist{Input: in, ProbeWith: carry.probes[i]})
						for _, c := range append([]string{"k"}, tb.Cols...) {
							out.Cols = append(out.Cols, fmt.Sprintf("%s.%s", tb.Name, c))
							out.ColExprs = append(out.ColExprs, Attr(len(inputs), c))
						}
						inputs = append(inputs, tb)
					}
					plan := &Plan{Root: &SelectJoin{
						SelInput: &Base{Table: driver}, Main: &Base{Table: fact},
						ProbeMainWith: Ref{Input: 0, Attr: "m"}, Preds: append(slices.Clone(scanSet), factSet...), Assists: assists, Out: out,
					}}

					// The reference: every driver row, in key and list
					// order, through the scan's key predicates and then
					// its column predicates, looked up in the fact; every
					// fact row of the key it probes, in list order,
					// through the key predicates, then the filters and
					// the gathered assists in assist order, then the
					// column predicates, and then, with two rows per key,
					// looked up in the carrying assist.
					var want [][]uint64
					filtered, dropped, lookups := 0, 0, 0
					driver.Idx.Iterate(func(dl *Leaf) bool {
						if !passes(scanSet, 0, "k", dl.Key) {
							dropped += dl.Vals.Len()
							return true
						}
						dl.Vals.Scan(func(d []uint64) bool {
							for c, col := range driver.Cols {
								if !passes(scanSet, 0, col, d[c]) {
									dropped++
									return true
								}
							}
							lookups++
							lf := fact.Idx.Lookup(d[0])
							if lf == nil {
								return true
							}
							keyOK := passes(factSet, 1, "k", lf.Key)
							lf.Vals.Scan(func(row []uint64) bool {
								if !keyOK {
									dropped++
									return true
								}
								for _, a := range filters {
									if !refFilters[a.table].has(row[fact.Col(a.probe)]) {
										filtered++
										return true
									}
								}
								r := append(append([]uint64{dl.Key}, d...), lf.Key)
								r = append(r, row...)
								var carried [][]uint64
								for i, tb := range carry.tables {
									k := row[fact.Col(carry.probes[i])]
									cl := tb.Idx.Lookup(k)
									if cl == nil {
										filtered++
										return true
									}
									cl.Vals.Scan(func(v []uint64) bool {
										carried = append(carried, append([]uint64{k}, v...))
										return true
									})
								}
								for c, col := range fact.Cols {
									if !passes(factSet, 1, col, row[c]) {
										dropped++
										return true
									}
								}
								if carry.probed {
									lookups++
									for _, c := range carried {
										want = append(want, append(slices.Clone(r), c...))
									}
									return true
								}
								for _, c := range carried {
									r = append(r, c...)
								}
								want = append(want, r)
								return true
							})
							return true
						})
						return true
					})
					if pi == 0 && si == 0 && len(filters) < 2 && carry.name != "empty gathered" && len(want) < V {
						t.Fatalf("%s: the fixture passes only %d rows", name, len(want))
					}
					for w, env := range envs {
						workers := w + 1
						for _, bs := range []int{1, 7, 512} {
							res, stats, err := env.Run(context.Background(), plan, Options{BufferSize: bs, CollectStats: true})
							if err != nil {
								t.Fatal(err)
							}
							got, exp := Extract(res).Rows, want
							if workers > 1 {
								slices.SortFunc(got, slices.Compare)
								exp = slices.Clone(want)
								slices.SortFunc(exp, slices.Compare)
							}
							if !sameRows(got, exp) {
								t.Fatalf("%s, Workers %d, BufferSize %d: %d rows differ from the %d-row reference", name, workers, bs, len(got), len(exp))
							}
							st := stats.Ops[len(stats.Ops)-1]
							if st.ProbeFiltered != filtered || st.ResidualDropped != dropped || st.ProbeLookups != lookups {
								t.Fatalf("%s, Workers %d, BufferSize %d: filtered %d, residual %d, probes %d; want %d, %d, %d",
									name, workers, bs, st.ProbeFiltered, st.ResidualDropped, st.ProbeLookups, filtered, dropped, lookups)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkFanOut times the fan-out over one synthetic fact leaf of 240 000
// rows, probed once: each row passes 0, 1 or 3 key filters of filter-only
// assists that hold every other key, with or without a range predicate on
// a column that half the rows pass, and every survivor folds into one
// group. It reports ns per fact row.
func BenchmarkFanOut(b *testing.B) {
	const rows = 240_000
	rng := rand.New(rand.NewSource(1))
	cols := []string{"c0", "c1", "c2", "c3", "rev"}
	data := make([]uint64, 0, rows*len(cols))
	for range rows {
		data = append(data, uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(100)), uint64(rng.Intn(1000)))
	}
	fact := NewIndexedTable("fact", SimpleKey("k", 16), cols,
		NewSortedIndex(IndexConfig{KeyBits: 16, PayloadWidth: len(cols)}, []uint64{1}, []int{rows}, data))
	driver := keyTable("drv", []uint64{1}, 1, 0)
	var evens []uint64
	for k := uint64(0); k < 64; k += 2 {
		evens = append(evens, k)
	}
	dim := keyTable("dim", evens, 1, 0)
	env := newTestEnv(b, EnvConfig{Workers: 1})
	for _, filters := range []int{0, 1, 3} {
		for _, pred := range []bool{false, true} {
			b.Run(fmt.Sprintf("filters=%d/range=%v", filters, pred), func(b *testing.B) {
				sj := &SelectJoin{
					SelInput: &Base{Table: driver}, Main: &Base{Table: fact}, ProbeMainWith: Ref{Input: 0, Attr: "k"},
					Out: OutputSpec{Name: "out", Key: SimpleKey("g", 16), KeyRefs: []Ref{{Input: 0, Attr: "k"}},
						Cols: []string{"rev"}, ColExprs: []RowExpr{Attr(1, "rev")}, Fold: FoldSum(0), Domain: []KeyRange{{Lo: 0, Hi: 1}}},
				}
				for i := range filters {
					sj.Assists = append(sj.Assists, Assist{Input: &Base{Table: dim}, ProbeWith: cols[i]})
				}
				if pred {
					sj.Preds = []AttrPred{{Ref: Ref{Input: 1, Attr: "c3"}, Pred: KeyPred{{Lo: 0, Hi: 49}}}}
				}
				plan := &Plan{Root: sj}
				b.ResetTimer()
				for range b.N {
					out, _, err := env.Run(context.Background(), plan, Options{})
					if err != nil {
						b.Fatal(err)
					}
					out.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
