// Package duplist implements QPPT's sequential duplicate handling
// (paper Section 2.4, Figure 4).
//
// All payload rows that share one index key are stored in a list of memory
// segments. The first row for a key lives in a small dedicated segment that
// also anchors the list; every further segment doubles the size of the
// previous one, starting at 64 bytes and capped at the 4 KB page size. The
// point of this layout is that a duplicate scan touches long sequential
// runs of memory — which hardware prefetchers can stream — instead of
// chasing a per-row linked list, while wasting at most half of the last
// segment. Beyond 4 KB, growing further buys nothing because hardware
// prefetching does not cross page boundaries, so segments stay at 4 KB.
//
// Rows are fixed-width tuples of uint64 attribute values; the width is a
// property of the owning indexed table. The same List type also backs
// aggregation-on-insert: instead of appending, an aggregator folds the new
// row into the stored first row (the paper's "grouping happens
// automatically as a side effect", Section 3).
//
// Segment memory normally comes from per-list `make` calls; the AppendIn /
// AggregateIn variants instead draw it from a Slab — a large-block
// allocator owned by the tree that embeds the lists — so a whole
// intermediate index allocates a handful of slabs instead of one object
// per key, and frees them wholesale when the index is dropped.
package duplist

const (
	// firstSegBytes is the size of the first duplicate segment (64 B).
	firstSegBytes = 64
	// maxSegBytes is the page-size cap for segment growth (4 KB).
	maxSegBytes = 4096
	wordBytes   = 8
)

// A List stores all payload rows for one index key.
//
// The zero value is not ready for use; create lists with New or Make so
// the row width is fixed. The first row is stored inline; duplicates go to
// doubling segments as in Figure 4 of the paper. The segment chain is kept
// oldest-first with head and tail pointers so scans stream the segments in
// insertion order without any per-scan bookkeeping; appends go to the tail
// (the paper anchors the chain at its newest segment instead — an
// equivalent O(1) choice).
type List struct {
	first      []uint64 // inline first row, len == width once set
	head, tail *segment // oldest first; nil until the first duplicate
	n          int      // total number of rows, including first
	width      int
}

// A segment is one sequential slab of duplicate rows.
type segment struct {
	next *segment // newer (larger) segment
	used int      // uint64 words used in data
	data []uint64
}

// New returns an empty list for rows of the given width (in uint64 words).
// Width 0 is allowed and models pure existence indexes (e.g. a unique
// probe-only index); such lists only count rows.
func New(width int) *List {
	if width < 0 {
		panic("duplist: negative row width")
	}
	return &List{width: width}
}

// Make returns an empty list by value, for embedding a list directly in a
// content node (one allocation and one pointer chase less per key).
func Make(width int) List {
	if width < 0 {
		panic("duplist: negative row width")
	}
	return List{width: width}
}

// MakeCounted returns an existence-only (width 0) list that already counts
// n rows — what n Appends would build, without a loop a corrupt snapshot's
// row count could stretch.
func MakeCounted(n int) List { return List{n: n} }

// Width reports the row width in uint64 words.
func (l *List) Width() int { return l.width }

// Len reports the number of rows stored.
func (l *List) Len() int { return l.n }

// First returns the first row stored for the key, or nil if the list is
// empty. The returned slice aliases list memory; callers must not grow it.
//
//qpptvet:ignore unreached test support: tests across the storage and engine packages read a leaf's payload through it
func (l *List) First() []uint64 {
	if l.n == 0 {
		return nil
	}
	return l.first
}

// Append adds a copy of row to the list.
func (l *List) Append(row []uint64) { l.AppendIn(nil, row) }

// AppendIn adds a copy of row to the list, drawing any new segment or
// first-row memory from slab. A nil slab falls back to per-list `make`
// calls — the pre-slab behaviour. A list must stick to one slab (or to
// none) for its whole lifetime.
func (l *List) AppendIn(slab *Slab, row []uint64) {
	if len(row) != l.width {
		panic("duplist: row width mismatch")
	}
	l.n++
	if l.n == 1 {
		if l.first == nil {
			l.first = allocRow(slab, l.width)
		}
		copy(l.first, row)
		return
	}
	if l.width == 0 {
		return // existence only: nothing to store
	}
	dst := l.alloc(slab)
	copy(dst, row)
}

// AggregateIn folds row into the stored first row using fold, or stores it
// as the first row if the list is empty, drawing first-row memory from slab
// (nil slab = per-list make, as with AppendIn). It is the insertion path
// used by grouping/aggregating indexes: the list then always holds exactly
// one row.
func (l *List) AggregateIn(slab *Slab, row []uint64, fold func(dst, src []uint64)) {
	if len(row) != l.width {
		panic("duplist: row width mismatch")
	}
	if l.n == 0 {
		l.n = 1
		if l.first == nil {
			l.first = allocRow(slab, l.width)
		}
		copy(l.first, row)
		return
	}
	fold(l.first, row)
}

// allocRow reserves one row of storage, from the slab when one is given.
func allocRow(slab *Slab, width int) []uint64 {
	if slab != nil {
		return slab.alloc(width)
	}
	return make([]uint64, width)
}

// alloc reserves space for one row and returns the destination slice.
func (l *List) alloc(slab *Slab) []uint64 {
	if l.tail == nil || l.tail.used+l.width > len(l.tail.data) {
		l.grow(slab)
	}
	s := l.tail
	dst := s.data[s.used : s.used+l.width]
	s.used += l.width
	return dst
}

// grow appends a new segment of twice the previous capacity, starting at
// 64 B and capping at the 4 KB page size (Figure 4). Segment header and
// data come from the slab when one is given.
func (l *List) grow(slab *Slab) {
	words := firstSegBytes / wordBytes
	if l.tail != nil {
		words = 2 * len(l.tail.data)
		if words > maxSegBytes/wordBytes {
			words = maxSegBytes / wordBytes
		}
	}
	if words < l.width { // very wide rows: at least one row per segment
		words = l.width
	}
	var seg *segment
	if slab != nil {
		seg = slab.newSegment(words)
	} else {
		seg = &segment{data: make([]uint64, words)}
	}
	if l.tail == nil {
		l.head, l.tail = seg, seg
	} else {
		l.tail.next = seg
		l.tail = seg
	}
}

// Scan calls visit for every row in insertion order. The row slice aliases
// list memory and is only valid during the call. Scan stops early if visit
// returns false and reports whether the scan ran to completion.
func (l *List) Scan(visit func(row []uint64) bool) bool {
	if l.n == 0 {
		return true
	}
	if !visit(l.first) {
		return false
	}
	if l.width == 0 {
		// Existence-only rows carry no storage; replay the count.
		for i := 1; i < l.n; i++ {
			if !visit(nil) {
				return false
			}
		}
		return true
	}
	for s := l.head; s != nil; s = s.next {
		for off := 0; off < s.used; off += l.width {
			if !visit(s.data[off : off+l.width]) {
				return false
			}
		}
	}
	return true
}

// Rows returns all rows as a freshly allocated slice of freshly allocated
// rows, in insertion order. Intended for tests, not for hot paths.
//
//qpptvet:ignore unreached test support: tests across the storage packages compare a leaf's rows through it
func (l *List) Rows() [][]uint64 {
	out := make([][]uint64, 0, l.n)
	l.Scan(func(row []uint64) bool {
		r := make([]uint64, len(row))
		copy(r, row)
		out = append(out, r)
		return true
	})
	return out
}

// Bytes estimates the heap footprint of the list payload in bytes,
// excluding the List header itself.
func (l *List) Bytes() int {
	b := len(l.first) * wordBytes
	for s := l.head; s != nil; s = s.next {
		b += len(s.data)*wordBytes + 24 // data + segment header estimate
	}
	return b
}

// Segments reports the number of duplicate segments (excluding the inline
// first row). Exposed for the Figure 4 ablation and for tests.
func (l *List) Segments() int {
	k := 0
	for s := l.head; s != nil; s = s.next {
		k++
	}
	return k
}
