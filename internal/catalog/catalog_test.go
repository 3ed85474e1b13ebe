package catalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"qppt/internal/core"
	"qppt/internal/duplist"
)

func TestDictOrderPreserving(t *testing.T) {
	f := func(strs []string) bool {
		if len(strs) == 0 {
			return true
		}
		b := NewDictBuilder()
		for _, s := range strs {
			b.Add(s)
		}
		d := b.Build()
		for i := 0; i < len(strs)-1; i++ {
			c1 := d.MustCode(strs[i])
			c2 := d.MustCode(strs[i+1])
			if (strs[i] < strs[i+1]) != (c1 < c2) {
				return false
			}
			if d.String(c1) != strs[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDictRangeHelpers(t *testing.T) {
	b := NewDictBuilder()
	for _, s := range []string{"MFGR#11", "MFGR#12", "MFGR#13", "MFGR#21", "MFGR#22", "AAA"} {
		b.Add(s)
	}
	d := b.Build()
	if d.Len() != 6 {
		t.Fatalf("Len = %d", d.Len())
	}
	if c, ok := d.CeilCode("MFGR#12"); !ok || d.String(c) != "MFGR#12" {
		t.Error("CeilCode exact match wrong")
	}
	if c, ok := d.CeilCode("MFGR#14"); !ok || d.String(c) != "MFGR#21" {
		t.Error("CeilCode gap wrong")
	}
	if _, ok := d.CeilCode("ZZZ"); ok {
		t.Error("CeilCode past end reported ok")
	}
	if c, ok := d.FloorCode("MFGR#14"); !ok || d.String(c) != "MFGR#13" {
		t.Error("FloorCode gap wrong")
	}
	if _, ok := d.FloorCode("A"); ok {
		t.Error("FloorCode before start reported ok")
	}
}

func loadMini(t testing.TB) (*Catalog, *TableInfo) {
	t.Helper()
	c := New()
	ti, err := c.Load("parts", []ColumnData{
		{Name: "partkey", Ints: []uint64{10, 11, 12, 13}},
		{Name: "brand", Strs: []string{"B#2", "B#1", "B#2", "B#3"}},
		{Name: "size", Ints: []uint64{7, 5, 7, 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, ti
}

func TestLoadAndEncode(t *testing.T) {
	c, ti := loadMini(t)
	if c.Table("parts") != ti || c.Table("nope") != nil {
		t.Fatal("table lookup broken")
	}
	if ti.Rows() != 4 {
		t.Fatalf("Rows = %d", ti.Rows())
	}
	if ti.Code("brand", "B#1") != 0 || ti.Code("brand", "B#3") != 2 {
		t.Fatal("dictionary codes not order-preserving")
	}
	if ti.Decode("brand", 1) != "B#2" || ti.Decode("size", 7) != "7" {
		t.Fatal("decode broken")
	}
	if ti.Bits("partkey") != 4 || ti.Bits("brand") != 2 {
		t.Fatalf("bits = %d/%d", ti.Bits("partkey"), ti.Bits("brand"))
	}
	if ti.Col("brand") != 1 || ti.Col("nope") != -1 || ti.Col(RIDCol) != -1 {
		t.Fatal("column positions broken")
	}
}

// TestLoadRejects: every malformed load is an error and leaves no table
// behind. A column called "rid" used to load and have its key width
// overwritten by the RID's, so an index keyed on it panicked in checkKey.
func TestLoadRejects(t *testing.T) {
	c, _ := loadMini(t)
	one := []uint64{1}
	for _, tc := range []struct {
		why, table string
		cols       []ColumnData
	}{
		{"table loaded twice", "parts", []ColumnData{{Name: "a", Ints: one}}},
		{"no columns", "bad", nil},
		{"ragged columns", "bad", []ColumnData{{Name: "a", Ints: one}, {Name: "b", Ints: []uint64{1, 2}}}},
		{"ragged string column", "bad", []ColumnData{{Name: "a", Ints: one}, {Name: "b", Strs: []string{"x", "y"}}}},
		{"duplicate column name", "bad", []ColumnData{{Name: "a", Ints: one}, {Name: "a", Strs: []string{"x"}}}},
		{"column named rid", "bad", []ColumnData{{Name: "a", Ints: one}, {Name: RIDCol, Ints: []uint64{1 << 40}}}},
	} {
		if _, err := c.Load(tc.table, tc.cols); err == nil {
			t.Errorf("%s: load accepted", tc.why)
		}
	}
	if c.Table("bad") != nil {
		t.Error("a rejected load registered its table")
	}
}

func TestBuildSecondaryIndex(t *testing.T) {
	_, ti := loadMini(t)
	idx, err := ti.BuildIndex(IndexDef{KeyCols: []string{"brand"}})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Keys() != 3 || idx.Rows() != 4 {
		t.Fatalf("keys/rows = %d/%d", idx.Keys(), idx.Rows())
	}
	if idx.Cols[0] != RIDCol || len(idx.Cols) != 1 {
		t.Fatalf("secondary payload = %v", idx.Cols)
	}
	// brand B#2 (code 1) has rids 0 and 2.
	vals := idx.Idx.Lookup(1)
	if vals == nil || vals.Len() != 2 {
		t.Fatal("duplicate key lost rows")
	}
	rids := map[uint64]bool{}
	vals.Scan(func(row []uint64) bool { rids[row[0]] = true; return true })
	if !rids[0] || !rids[2] {
		t.Fatalf("rids = %v", rids)
	}
	// Cached on second build.
	again, _ := ti.BuildIndex(IndexDef{KeyCols: []string{"brand"}})
	if again != idx {
		t.Fatal("index not cached")
	}
}

func TestBuildPartiallyClusteredIndex(t *testing.T) {
	_, ti := loadMini(t)
	idx := ti.MustIndex([]string{"partkey"}, "brand", "size")
	if len(idx.Cols) != 3 || idx.Cols[1] != "brand" || idx.Cols[2] != "size" {
		t.Fatalf("cols = %v", idx.Cols)
	}
	vals := idx.Idx.Lookup(12)
	if vals == nil || vals.Len() != 1 {
		t.Fatal("partkey 12 not found")
	}
	row := vals.First()
	if row[0] != 2 || row[1] != ti.Code("brand", "B#2") || row[2] != 7 {
		t.Fatalf("payload = %v", row)
	}
}

// TestIncludeOrderIsOneIndex: the Include list is a set. Two definitions
// that differ only in its order are one index, built once, with its payload
// in sorted order whichever definition built it.
func TestIncludeOrderIsOneIndex(t *testing.T) {
	_, ti := loadMini(t)
	a := ti.MustIndex([]string{"partkey"}, "size", "brand")
	if b := ti.MustIndex([]string{"partkey"}, "brand", "size"); b != a {
		t.Fatal("reordered Include built a second copy of the index")
	}
	if !slices.Equal(a.Cols, []string{RIDCol, "brand", "size"}) {
		t.Fatalf("payload = %v, want the RID then Include sorted", a.Cols)
	}
	if n1, n2 := (IndexDef{KeyCols: []string{"partkey"}, Include: []string{"size", "brand"}}).IndexName("parts"),
		(IndexDef{KeyCols: []string{"partkey"}, Include: []string{"brand", "size"}}).IndexName("parts"); n1 != n2 {
		t.Fatalf("names differ: %s vs %s", n1, n2)
	}
}

func TestBuildComposedKeyIndex(t *testing.T) {
	_, ti := loadMini(t)
	idx := ti.MustIndex([]string{"brand", "size"})
	if len(idx.Key.Attrs) != 2 {
		t.Fatalf("key attrs = %v", idx.Key.Attrs)
	}
	// Iterate: keys must come out sorted by (brand, size).
	type bs struct{ b, s uint64 }
	var got []bs
	comp := idx.Key.Composer()
	idx.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
		got = append(got, bs{comp.Field(k, 0), comp.Field(k, 1)})
		return true
	})
	if len(got) != 3 {
		t.Fatalf("%d distinct (brand,size) keys, want 3", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		return got[i].b < got[j].b || (got[i].b == got[j].b && got[i].s < got[j].s)
	}) {
		t.Fatal("composed keys not sorted")
	}
	if _, err := ti.BuildIndex(IndexDef{KeyCols: []string{"nope"}}); err == nil {
		t.Fatal("unknown key column accepted")
	}
	if _, err := ti.BuildIndex(IndexDef{KeyCols: []string{"brand"}, Include: []string{"nope"}}); err == nil {
		t.Fatal("unknown include column accepted")
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	_, ti := loadMini(t)
	cols := ti.Columns()
	if len(cols) != 3 || len(cols["partkey"]) != 4 {
		t.Fatalf("columns = %v", cols)
	}
	if cols["partkey"][2] != 12 || cols["size"][3] != 9 {
		t.Fatalf("int columns wrong: %v", cols)
	}
	if cols["brand"][1] != ti.Code("brand", "B#1") {
		t.Fatalf("string column not dictionary-encoded")
	}
}

// TestLoadKeepsColumns: the base table is the arrays it was loaded from.
// Load of an integer table allocates per column, never per row; Columns
// hands back the loaded slice itself, and the same encoded array on every
// call for a string column.
func TestLoadKeepsColumns(t *testing.T) {
	const n = 20000
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(i), uint64(i%7)
	}
	var ti *TableInfo
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if ti, err = New().Load("t", []ColumnData{{Name: "a", Ints: a}, {Name: "b", Ints: b}}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Load of 2 columns x %d rows made %.0f allocations, want O(columns)", n, allocs)
	}
	if cols := ti.Columns(); &cols["a"][0] != &a[0] || &cols["b"][0] != &b[0] {
		t.Error("Columns copied an integer column instead of returning the loaded array")
	}
	_, mini := loadMini(t)
	if first, again := mini.Columns()["brand"], mini.Columns()["brand"]; &first[0] != &again[0] {
		t.Error("Columns re-encoded a string column")
	}
	idx := ti.MustIndex([]string{"b"}, "a")
	if idx.Rows() != n || idx.Keys() != 7 {
		t.Fatalf("index over the kept columns has %d rows, %d keys", idx.Rows(), idx.Keys())
	}
	idx.Idx.Lookup(3).Scan(func(row []uint64) bool {
		if rid := row[0]; row[1] != a[rid] || b[rid] != 3 {
			t.Fatalf("row %v under key 3 does not match the table at its rid", row)
		}
		return true
	})
}

func TestIndexUsableInPlan(t *testing.T) {
	_, ti := loadMini(t)
	base := ti.MustIndex([]string{"brand"}, "partkey")
	sel := &core.Selection{
		Input: &core.Base{Table: base},
		Pred:  core.Point(ti.Code("brand", "B#2")),
		Out: core.OutputSpec{
			Name:     "σ",
			Key:      core.SimpleKey("partkey", ti.Bits("partkey")),
			KeyRefs:  []core.Ref{{Input: 0, Attr: "partkey"}},
			Cols:     []string{RIDCol},
			ColExprs: []core.RowExpr{core.Attr(0, RIDCol)},
		},
	}
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	out, _, err := env.Run(context.Background(), &core.Plan{Root: sel}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := core.Extract(out)
	if len(res.Rows) != 2 || res.Rows[0][0] != 10 || res.Rows[1][0] != 12 {
		t.Fatalf("selection result = %v", res.Rows)
	}
}

// A cancelled context must abort a base-index build mid-scan instead of
// finishing a full table scan for a client that hung up.
func TestBuildIndexCtxCancelled(t *testing.T) {
	c := New()
	const n = 100000 // a dozen ctx poll intervals
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 97)
	}
	ti, err := c.Load("big", []ColumnData{{Name: "v", Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ti.BuildIndexCtx(ctx, IndexDef{KeyCols: []string{"v"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	// A context cancelled while the build runs stops it mid-table: the
	// build sees it at its next poll and never reaches the later ones.
	polls := &pollCtx{Context: context.Background(), cancelAt: 2}
	if _, err := ti.BuildIndexCtx(polls, IndexDef{KeyCols: []string{"v"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("build cancelled at its second poll returned %v, want context.Canceled", err)
	}
	if full := n / 8192; polls.calls < 2 || polls.calls >= full {
		t.Fatalf("cancelled build polled %d times; a build that ran to the end polls %d times", polls.calls, full)
	}
	// The aborted build must not have cached a partial index; a later
	// build with a live context succeeds from scratch.
	idx, err := ti.BuildIndexCtx(context.Background(), IndexDef{KeyCols: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Rows() != n {
		t.Fatalf("rebuilt index has %d rows, want %d", idx.Rows(), n)
	}
}

// pollCtx is a live context until its cancelAt-th Err call.
type pollCtx struct {
	context.Context
	calls, cancelAt int
}

func (p *pollCtx) Err() error {
	if p.calls++; p.calls >= p.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCellEncoder: the three ways to render a cell — TableInfo.Decode,
// CellEncoder.String and CellEncoder.AppendText — are one encoder and
// agree with fmt, for numbers, dictionary strings and codes outside the
// dictionary.
func TestCellEncoder(t *testing.T) {
	_, ti := loadMini(t)
	for _, col := range []string{"brand", "size"} {
		enc := ti.Encoder(col)
		for _, v := range []uint64{0, 1, 2, 3, 9, 99, 100, 1 << 32, 1<<64 - 1} {
			want := fmt.Sprintf("%d", v)
			if d := ti.Dict(col); d != nil && v < uint64(d.Len()) {
				want = d.strs[v]
			} else if d != nil {
				want = fmt.Sprintf("<code %d>", v)
			}
			if got := ti.Decode(col, v); got != want {
				t.Errorf("Decode(%s, %d) = %q, want %q", col, v, got, want)
			}
			if got := enc.String(v); got != want {
				t.Errorf("Encoder(%s).String(%d) = %q, want %q", col, v, got, want)
			}
			if got := string(enc.AppendText([]byte("x"), v)); got != "x"+want {
				t.Errorf("Encoder(%s).AppendText(x, %d) = %q, want %q", col, v, got, "x"+want)
			}
		}
	}
}

// TestDecodeCellAllocs: decoding allocates the string it returns and
// nothing else — and not even that for a dictionary string — and appending
// into a buffer with room allocates nothing.
func TestDecodeCellAllocs(t *testing.T) {
	_, ti := loadMini(t)
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = ti.Decode("size", 123456789) }); n > 1 {
		t.Errorf("Decode of a numeric cell allocates %.0f objects, want at most the string", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = ti.Decode("brand", 1) }); n != 0 {
		t.Errorf("Decode of a dictionary cell allocates %.0f objects, want 0", n)
	}
	buf := make([]byte, 0, 64)
	brand, size := ti.Encoder("brand"), ti.Encoder("size")
	if n := testing.AllocsPerRun(100, func() {
		buf = size.AppendText(brand.AppendText(brand.AppendText(buf[:0], 1), 1<<40), 1<<64-1)
	}); n != 0 {
		t.Errorf("AppendText into a buffer with room allocates %.0f objects, want 0", n)
	}
	_ = sink
}

// BenchmarkDecodeCell is the result path's unit of work: one dictionary
// cell and one numeric cell appended to a reused buffer.
func BenchmarkDecodeCell(b *testing.B) {
	_, ti := loadMini(b)
	brand, size := ti.Encoder("brand"), ti.Encoder("size")
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = size.AppendText(brand.AppendText(buf[:0], uint64(i)&1), uint64(i))
	}
}
