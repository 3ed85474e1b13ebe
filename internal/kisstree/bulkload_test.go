package kisstree

import "testing"

// TestBulkLoadInsertRun: InsertRun adopts each key's run in place — the
// leaf's first row and its one segment are the run's memory — Bytes counts
// the runs, and a second run for a key already present panics.
func TestBulkLoadInsertRun(t *testing.T) {
	const width = 2
	keys := []uint64{3, 64, 1 << 20, 1<<32 - 1}
	counts := []int{1, 3, 2, 5}
	tr := MustNew(Config{PayloadWidth: width})
	defer tr.Release()
	var rows []uint64
	for i, n := range counts {
		for j := 0; j < n; j++ {
			rows = append(rows, keys[i], uint64(j))
		}
	}
	start := 0
	for i, k := range keys {
		tr.InsertRun(k, rows[start*width:(start+counts[i])*width])
		start += counts[i]
	}
	if tr.Keys() != len(keys) || tr.Rows() != start {
		t.Fatalf("Keys %d, Rows %d; want %d, %d", tr.Keys(), tr.Rows(), len(keys), start)
	}
	if b := tr.Bytes(); b < tr.Rows()*width*8 {
		t.Fatalf("Bytes %d does not count the %d-byte runs", b, tr.Rows()*width*8)
	}
	start = 0
	i := 0
	tr.Iterate(func(lf *Leaf) bool {
		if lf.Key != keys[i] || lf.Vals.Len() != counts[i] || &lf.Vals.First()[0] != &rows[start*width] {
			t.Fatalf("leaf %d: key %d with %d rows does not view run %d", i, lf.Key, lf.Vals.Len(), i)
		}
		j := 0
		lf.Vals.Scan(func(row []uint64) bool {
			if &row[0] != &rows[(start+j)*width] {
				t.Fatalf("key %d: row %d is not read in place", lf.Key, j)
			}
			j++
			return true
		})
		start += counts[i]
		i++
		return true
	})
	defer func() {
		if recover() == nil {
			t.Error("InsertRun of a present key did not panic")
		}
	}()
	tr.InsertRun(keys[1], rows[:width])
}
