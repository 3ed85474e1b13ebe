package duplist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	l := New(2)
	if l.Len() != 0 || l.First() != nil {
		t.Errorf("empty list: Len=%d First=%v", l.Len(), l.First())
	}
	if !l.Scan(func([]uint64) bool { t.Error("visit on empty"); return true }) {
		t.Error("scan of empty list reported early stop")
	}
}

func TestAppendScanOrder(t *testing.T) {
	const width = 3
	l := New(width)
	var want [][]uint64
	for i := 0; i < 2000; i++ {
		row := []uint64{uint64(i), uint64(i * 2), uint64(i * 3)}
		l.Append(row)
		want = append(want, row)
	}
	if l.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", l.Len())
	}
	got := l.Rows()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scan order differs from insertion order")
	}
}

func TestSegmentDoubling(t *testing.T) {
	// Width 1: rows are 8 bytes. First segment 64 B = 8 rows, then 16, 32,
	// ..., capped at 4 KB = 512 rows.
	l := New(1)
	l.Append([]uint64{0}) // inline first row, no segment
	if l.Segments() != 0 {
		t.Fatalf("first row allocated a segment")
	}
	for i := 1; i <= 8; i++ {
		l.Append([]uint64{uint64(i)})
	}
	if l.Segments() != 1 {
		t.Fatalf("after 8 duplicates: %d segments, want 1", l.Segments())
	}
	// Fill up to the cap and beyond: capacities 8,16,32,...,512,512,...
	for i := 9; i <= 8+16+32+64+128+256+512+512; i++ {
		l.Append([]uint64{uint64(i)})
	}
	// 8 segments of growing size plus one more at the 4 KB cap.
	if l.Segments() != 8 {
		t.Fatalf("segments = %d, want 8", l.Segments())
	}
	l.Append([]uint64{1})
	if l.Segments() != 9 {
		t.Fatalf("segments after cap overflow = %d, want 9", l.Segments())
	}
}

func TestManySegmentsScan(t *testing.T) {
	// Regression: lists with far more than 64 segments (large duplicate
	// chains past the 4 KB cap) must scan completely and in order.
	l := New(3)
	const n = 200000 // ~4.8 MB of rows → hundreds of 4 KB segments
	for i := 0; i < n; i++ {
		l.Append([]uint64{uint64(i), 0, 0})
	}
	if l.Segments() < 100 {
		t.Fatalf("expected >100 segments, got %d", l.Segments())
	}
	i := 0
	l.Scan(func(r []uint64) bool {
		if r[0] != uint64(i) {
			t.Fatalf("row %d out of order: %d", i, r[0])
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("scanned %d rows, want %d", i, n)
	}
}

func TestWideRows(t *testing.T) {
	// Rows wider than the first segment size must still fit one per segment.
	const width = 20 // 160 B > 64 B
	l := New(width)
	row := make([]uint64, width)
	for i := 0; i < 100; i++ {
		row[0] = uint64(i)
		l.Append(row)
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	i := 0
	l.Scan(func(r []uint64) bool {
		if r[0] != uint64(i) {
			t.Fatalf("row %d has value %d", i, r[0])
		}
		i++
		return true
	})
}

func TestWidthZeroExistenceList(t *testing.T) {
	l := New(0)
	for i := 0; i < 10; i++ {
		l.Append(nil)
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}
	n := 0
	l.Scan(func(row []uint64) bool {
		if len(row) != 0 {
			t.Fatal("width-0 row has data")
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("visited %d rows, want 10", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	l := New(1)
	for i := 0; i < 100; i++ {
		l.Append([]uint64{uint64(i)})
	}
	n := 0
	if l.Scan(func([]uint64) bool { n++; return n < 5 }) {
		t.Error("early-stopped scan reported completion")
	}
	if n != 5 {
		t.Errorf("visited %d rows, want 5", n)
	}
}

func TestAggregate(t *testing.T) {
	l := New(2)
	sum := func(dst, src []uint64) { dst[0] += src[0]; dst[1] += src[1] }
	for i := 1; i <= 10; i++ {
		l.AggregateIn(nil, []uint64{uint64(i), 1}, sum)
	}
	if l.Len() != 1 {
		t.Fatalf("aggregated list Len = %d, want 1", l.Len())
	}
	if got := l.First(); got[0] != 55 || got[1] != 10 {
		t.Fatalf("aggregate = %v, want [55 10]", got)
	}
}

func TestPropertyScanMatchesOracle(t *testing.T) {
	f := func(rows []uint16, width8 uint8) bool {
		width := int(width8%4) + 1
		l := New(width)
		var want [][]uint64
		row := make([]uint64, width)
		for _, v := range rows {
			for j := range row {
				row[j] = uint64(v) + uint64(j)
			}
			l.Append(row)
			cp := make([]uint64, width)
			copy(cp, row)
			want = append(want, cp)
		}
		got := l.Rows()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on width mismatch")
		}
	}()
	New(2).Append([]uint64{1})
}
