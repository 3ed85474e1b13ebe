package duplist

import (
	"reflect"
	"testing"
)

// viewRun returns n rows of width words, row i holding i*width, i*width+1,
// …, followed in the same array by one row of sentinels past the run.
func viewRun(n, width int) (run, backing []uint64) {
	backing = make([]uint64, (n+1)*width)
	for i := range backing {
		backing[i] = uint64(i)
	}
	for i := n * width; i < len(backing); i++ {
		backing[i] = ^uint64(0)
	}
	return backing[:n*width], backing
}

// TestViewReadsRun: a view is the run it was given — the first row
// inline, the rest as one segment — read in place by Scan, Runs and First,
// and counted by Len, Bytes and the slab's Bytes.
func TestViewReadsRun(t *testing.T) {
	for _, width := range []int{1, 3} {
		for _, n := range []int{1, 2, 100} {
			run, _ := viewRun(n, width)
			slab := NewSlabIn(nil)
			l := slab.View(run, width)
			if l.Len() != n || l.Width() != width {
				t.Fatalf("width %d, %d rows: Len %d, Width %d", width, n, l.Len(), l.Width())
			}
			if first := l.First(); !reflect.DeepEqual(first, run[:width]) || &first[0] != &run[0] {
				t.Fatalf("width %d, %d rows: First %v is not the run's first row in place", width, n, first)
			}
			i := 0
			l.Scan(func(row []uint64) bool {
				if &row[0] != &run[i*width] || len(row) != width {
					t.Fatalf("width %d, %d rows: Scan row %d is not run row %d in place", width, n, i, i)
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("width %d, %d rows: Scan visited %d rows", width, n, i)
			}
			var runs [][]uint64
			l.Runs(func(r []uint64) bool { runs = append(runs, r); return true })
			want := [][]uint64{run[:width]}
			if n > 1 {
				want = append(want, run[width:])
			}
			if len(runs) != len(want) {
				t.Fatalf("width %d, %d rows: %d runs, want %d", width, n, len(runs), len(want))
			}
			for j, r := range runs {
				if len(r) != len(want[j]) || &r[0] != &want[j][0] {
					t.Fatalf("width %d, %d rows: run %d is not the run's rows in place", width, n, j)
				}
			}
			segBytes := 0
			if n > 1 {
				segBytes = 24
			}
			if got := l.Bytes(); got != n*width*wordBytes+segBytes {
				t.Fatalf("width %d, %d rows: Bytes %d, want %d", width, n, got, n*width*wordBytes+segBytes)
			}
			if got := slab.Bytes(); got < n*width*wordBytes {
				t.Fatalf("width %d, %d rows: slab Bytes %d does not count the %d-byte run", width, n, got, n*width*wordBytes)
			}
			slab.Release()
			if got := slab.Bytes(); got != 0 {
				t.Fatalf("width %d, %d rows: slab Bytes %d after Release, want 0", width, n, got)
			}
		}
	}
}

// TestViewAppendGrowsSegment: appending to a view never writes the viewed
// array — not the run, not the words behind it — but grows a segment of
// its own, as on any list.
func TestViewAppendGrowsSegment(t *testing.T) {
	for _, n := range []int{1, 5} {
		const width = 2
		run, backing := viewRun(n, width)
		before := append([]uint64(nil), backing...)
		slab := NewSlabIn(nil)
		l := slab.View(run, width)
		want := l.Rows()
		segs := l.Segments()
		for i := 0; i < 20; i++ {
			row := []uint64{uint64(1000 + i), 7}
			l.AppendIn(slab, row)
			want = append(want, row)
		}
		if !reflect.DeepEqual(backing, before) {
			t.Fatalf("%d-row view: AppendIn wrote into the viewed array", n)
		}
		if l.Len() != n+20 || !reflect.DeepEqual(l.Rows(), want) {
			t.Fatalf("%d-row view: rows after AppendIn are %v, want %v", n, l.Rows(), want)
		}
		if l.Segments() <= segs {
			t.Fatalf("%d-row view: AppendIn grew no segment (%d before, %d after)", n, segs, l.Segments())
		}
		slab.Release()
	}
}

// TestViewRejectsRaggedRuns: a view holds whole rows of a positive width.
func TestViewRejectsRaggedRuns(t *testing.T) {
	for _, tc := range []struct {
		run   []uint64
		width int
	}{
		{nil, 2},
		{make([]uint64, 3), 2},
		{make([]uint64, 4), 0},
	} {
		func() {
			slab := NewSlabIn(nil)
			defer slab.Release()
			defer func() {
				if recover() == nil {
					t.Errorf("View of %d words at width %d did not panic", len(tc.run), tc.width)
				}
			}()
			slab.View(tc.run, tc.width)
		}()
	}
}
