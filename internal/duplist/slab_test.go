package duplist

import (
	"reflect"
	"testing"

	"qppt/internal/arena"
	"qppt/internal/arena/arenatest"
)

// TestSlabListMatchesPlainList: a slab-backed list must behave exactly
// like a make-backed one — same rows, same segment doubling schedule.
func TestSlabListMatchesPlainList(t *testing.T) {
	for _, width := range []int{0, 1, 2, 7} {
		slab := NewSlab()
		a := Make(width)
		b := Make(width)
		row := make([]uint64, width)
		for i := 0; i < 3000; i++ {
			for j := range row {
				row[j] = uint64(i*10 + j)
			}
			a.AppendIn(slab, row)
			b.Append(row)
		}
		if a.Len() != b.Len() {
			t.Fatalf("width %d: len %d vs %d", width, a.Len(), b.Len())
		}
		if a.Segments() != b.Segments() {
			t.Fatalf("width %d: segments %d vs %d (doubling schedule diverged)",
				width, a.Segments(), b.Segments())
		}
		if !reflect.DeepEqual(a.Rows(), b.Rows()) {
			t.Fatalf("width %d: slab-backed rows differ from plain rows", width)
		}
		slab.Release()
	}
}

// TestSlabSharedAcrossLists: many lists drawing from one slab stay
// independent, and the slab block count stays far below the key count.
func TestSlabSharedAcrossLists(t *testing.T) {
	slab := NewSlab()
	defer slab.Release()
	const keys = 5000
	lists := make([]List, keys)
	for i := range lists {
		lists[i] = Make(1)
	}
	for rep := 0; rep < 3; rep++ {
		for i := range lists {
			lists[i].AppendIn(slab, []uint64{uint64(i*1000 + rep)})
		}
	}
	for i := range lists {
		rows := lists[i].Rows()
		if len(rows) != 3 {
			t.Fatalf("list %d has %d rows", i, len(rows))
		}
		for rep, r := range rows {
			if r[0] != uint64(i*1000+rep) {
				t.Fatalf("list %d row %d = %d: lists share storage", i, rep, r[0])
			}
		}
	}
	// keys first rows + keys segments of 8 words each ≈ 45k words → a few
	// dozen 8 KiW blocks, not one allocation per key.
	if slab.Blocks() > keys/50 {
		t.Fatalf("slab used %d blocks for %d keys — not slab-shaped", slab.Blocks(), keys)
	}
	if slab.Bytes() == 0 {
		t.Fatal("slab reports zero bytes")
	}
}

// TestSlabAggregate: AggregateIn allocates the first row from the slab and
// folds in place afterwards.
func TestSlabAggregate(t *testing.T) {
	slab := NewSlab()
	defer slab.Release()
	l := Make(2)
	fold := func(dst, src []uint64) { dst[0] += src[0]; dst[1] += src[1] }
	for i := 1; i <= 10; i++ {
		l.AggregateIn(slab, []uint64{uint64(i), uint64(2 * i)}, fold)
	}
	if l.Len() != 1 {
		t.Fatalf("aggregated list len = %d", l.Len())
	}
	if f := l.First(); f[0] != 55 || f[1] != 110 {
		t.Fatalf("aggregate = %v, want [55 110]", f)
	}
	if slab.Blocks() != 1 {
		t.Fatalf("aggregate-only list used %d blocks", slab.Blocks())
	}
}

// TestSlabWideRows: rows wider than a slab block get dedicated blocks
// instead of panicking or splitting.
func TestSlabWideRows(t *testing.T) {
	slab := NewSlab()
	defer slab.Release()
	width := slabBlockWords + 3
	l := Make(width)
	row := make([]uint64, width)
	row[0], row[width-1] = 1, 2
	l.AppendIn(slab, row)
	row[0], row[width-1] = 3, 4
	l.AppendIn(slab, row)
	rows := l.Rows()
	if len(rows) != 2 || rows[0][0] != 1 || rows[0][width-1] != 2 || rows[1][0] != 3 || rows[1][width-1] != 4 {
		t.Fatalf("wide rows corrupted")
	}
}

// TestSlabReleaseKeepsBlocksZero: Release hands the current block back at
// the offset carved from it (a slab that held one row clears one row) and
// the earlier blocks in full; either way every block must come out of the
// pool all-zero again — for a slab that wrote one row and for one that
// filled several blocks.
func TestSlabReleaseKeepsBlocksZero(t *testing.T) {
	arenatest.CheckZeroHandouts(t)
	rec := arena.NewRecycler()
	for _, rows := range []int{1, 40000, 1, 40000} {
		slab := NewSlabIn(rec)
		l := Make(3)
		for i := 0; i < rows; i++ {
			l.AppendIn(slab, []uint64{^uint64(0), uint64(i), 7})
		}
		if l.Len() != rows {
			t.Fatalf("list holds %d rows, want %d", l.Len(), rows)
		}
		slab.Release()
	}
	if st := rec.Stats(); st.Reused == 0 {
		t.Fatalf("slabs never reused a block: %+v", st)
	}
}
