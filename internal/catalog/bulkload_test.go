package catalog

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"qppt/internal/core"
)

// bulkTable loads a table of n rows: key columns k0 and k1 drawn by the
// given functions, and two payload columns x and y unique per row.
func bulkTable(t *testing.T, n int, k0, k1 func(rng *rand.Rand) uint64) *TableInfo {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	cols := []ColumnData{{Name: "k0"}, {Name: "k1"}, {Name: "x"}, {Name: "y"}}
	for i := range cols {
		cols[i].Ints = make([]uint64, n)
	}
	for rid := 0; rid < n; rid++ {
		cols[0].Ints[rid], cols[1].Ints[rid] = k0(rng), k1(rng)
		cols[2].Ints[rid], cols[3].Ints[rid] = uint64(rid)*3, uint64(rid)*7+1
	}
	ti, err := New().Load("t", cols)
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

// TestBuildIndexBulkLoad: a bulk-loaded base index holds what a reference
// built straight from the columns holds — the same keys, ascending, and
// under each key the same rows in rid order — with each key's rows one run
// of memory: Runs yields at most two runs, the second right behind the
// first row. Its Bytes counts those rows, for either tree kind.
func TestBuildIndexBulkLoad(t *testing.T) {
	uniform := func(span uint64) func(*rand.Rand) uint64 {
		return func(rng *rand.Rand) uint64 { return 1000 + uint64(rng.Int63n(int64(span))) }
	}
	const wideKeys = 300
	wide := make([]uint64, wideKeys) // keys up to 2^63: four digit passes
	r := rand.New(rand.NewSource(1))
	for i := range wide {
		wide[i] = r.Uint64() >> 1
	}
	zero := func(*rand.Rand) uint64 { return 0 }
	for _, tc := range []struct {
		name    string
		n       int
		k0, k1  func(*rand.Rand) uint64
		keyCols []string
	}{
		{"span below 2^16", 20000, uniform(5000), zero, []string{"k0"}},
		{"span above 2^16", 30000, uniform(300000), zero, []string{"k0"}},
		{"span near 2^63", 20000, func(rng *rand.Rand) uint64 { return wide[rng.Intn(wideKeys)] }, zero, []string{"k0"}},
		{"two-column key", 20000, uniform(40), uniform(900), []string{"k0", "k1"}},
		{"empty table", 0, uniform(10), zero, []string{"k0"}},
		{"one row", 1, uniform(10), zero, []string{"k0"}},
		{"one distinct key", 20000, func(*rand.Rand) uint64 { return 77 }, zero, []string{"k0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ti := bulkTable(t, tc.n, tc.k0, tc.k1)
			idx, err := ti.BuildIndex(IndexDef{KeyCols: tc.keyCols, Include: []string{"y", "x"}})
			if err != nil {
				t.Fatal(err)
			}
			// The reference: every row under its key, in rid order.
			comp := idx.Key.Composer()
			want := map[uint64][][]uint64{}
			cols := ti.Columns()
			for rid := 0; rid < tc.n; rid++ {
				k := cols["k0"][rid]
				if comp != nil {
					k = comp.Compose(cols["k0"][rid], cols["k1"][rid])
				}
				want[k] = append(want[k], []uint64{uint64(rid), cols["x"][rid], cols["y"][rid]})
			}
			wantKeys := make([]uint64, 0, len(want))
			for k := range want {
				wantKeys = append(wantKeys, k)
			}
			slices.Sort(wantKeys)
			var gotKeys []uint64
			idx.Idx.Iterate(func(lf *core.Leaf) bool {
				k, vals := lf.Key, &lf.Vals
				gotKeys = append(gotKeys, k)
				if got := vals.Rows(); !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("key %d holds %v, want %v", k, got, want[k])
				}
				var runs [][]uint64
				vals.Runs(func(run []uint64) bool { runs = append(runs, run); return true })
				if len(runs) > 2 {
					t.Fatalf("key %d: %d runs, want one run (at most two: the first row, the rest)", k, len(runs))
				}
				if len(runs) == 2 && unsafe.Pointer(&runs[1][0]) != unsafe.Add(unsafe.Pointer(&runs[0][0]), 8*len(runs[0])) {
					t.Fatalf("key %d: the rows after the first do not follow it in memory", k)
				}
				return true
			})
			if !slices.Equal(gotKeys, wantKeys) {
				t.Fatalf("index keys %v, want %v", gotKeys, wantKeys)
			}
			if idx.Rows() != tc.n || idx.Keys() != len(wantKeys) {
				t.Fatalf("Rows %d, Keys %d; want %d, %d", idx.Rows(), idx.Keys(), tc.n, len(wantKeys))
			}
			if b, rows := idx.Idx.Bytes(), idx.Rows()*idx.Idx.PayloadWidth()*8; b < rows {
				t.Fatalf("Bytes %d does not count the %d bytes of rows (key bits %d)", b, rows, idx.Idx.KeyBits())
			}
		})
	}
}

// TestBuildIndexRejectsBadDefs: a definition with no key column, or with
// key columns wider than 64 bits together, is an error, and nothing is
// cached for it.
func TestBuildIndexRejectsBadDefs(t *testing.T) {
	ti := bulkTable(t, 100, func(*rand.Rand) uint64 { return 1 << 40 }, func(*rand.Rand) uint64 { return 1 << 40 })
	for _, tc := range []struct {
		def  IndexDef
		want string
	}{
		{IndexDef{Include: []string{"x"}}, "no key column"},
		{IndexDef{KeyCols: []string{"k0", "k1"}}, "82 bits"},
	} {
		_, err := ti.BuildIndex(tc.def)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("BuildIndex(%+v) = %v, want an error saying %q", tc.def, err, tc.want)
		}
	}
	if len(ti.indexes) != 0 {
		t.Fatalf("a rejected definition cached %d indexes", len(ti.indexes))
	}
}

// TestBuildIndexCancelledAtEveryPoll: a build cancelled at any of its
// polls — while composing keys, finding the key span, counting a digit
// or scattering rows — returns context.Canceled and caches nothing; the
// build polls every pass, not only the first.
func TestBuildIndexCancelledAtEveryPoll(t *testing.T) {
	const n = 3*pollRows + 100
	table := func() *TableInfo {
		return bulkTable(t, n,
			func(rng *rand.Rand) uint64 { return uint64(rng.Intn(200000)) },
			func(rng *rand.Rand) uint64 { return uint64(rng.Intn(16)) })
	}
	ti := table()
	for _, keyCols := range [][]string{{"k0"}, {"k0", "k1"}} {
		def := IndexDef{KeyCols: keyCols, Include: []string{"x"}}
		// A context that never cancels counts the polls of a whole build:
		// the span pass, then count and scatter for each of two digits
		// (plus the compose pass of a two-column key), 4 blocks each.
		count := &pollCtx{Context: context.Background(), cancelAt: math.MaxInt}
		if _, err := table().BuildIndexCtx(count, def); err != nil {
			t.Fatal(err)
		}
		passes := 5 + len(keyCols) - 1
		if count.calls != 4*passes {
			t.Fatalf("%v: a full build polled %d times, want %d", keyCols, count.calls, 4*passes)
		}
		for at := 1; at <= count.calls; at++ {
			polls := &pollCtx{Context: context.Background(), cancelAt: at}
			if _, err := ti.BuildIndexCtx(polls, def); !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: build cancelled at poll %d returned %v, want context.Canceled", keyCols, at, err)
			}
			if polls.calls != at {
				t.Fatalf("%v: build cancelled at poll %d polled %d times", keyCols, at, polls.calls)
			}
			if len(ti.indexes) != 0 {
				t.Fatalf("%v: build cancelled at poll %d cached an index", keyCols, at)
			}
		}
	}
}
