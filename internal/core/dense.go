package core

import (
	"fmt"
	"math/bits"

	"qppt/internal/arena"
)

// The dense fold: a folding output whose key domain is small aggregates in
// a flat array instead of the output index (array-based aggregation, Zhao,
// Deshpande and Naughton, SIGMOD 1997). The paper builds aggregation into
// the output index's insert (Section 4); for a GROUP BY of a few thousand
// groups a tree insert costs 15–45 ns a row, where an array slot costs a
// multiply-add and a bit test. The output is still an index: once every
// row is folded, the present slots are inserted into it in ascending key
// order.
//
// A key's slot is Σ (vᵢ − loᵢ)·strideᵢ over the key attributes, the last
// attribute's stride 1 and each earlier one's the product of the spans
// after it. Slots therefore sort like the composed key, whose first
// attribute is the most significant. A keyless output has one slot.

// denseCap bounds the slots of a dense fold: a product of the GROUP BY
// spans above it folds into the output index. SSB's roll-ups at SF 0.2 need
// at most 7 × 1 000 (Q2.x) and 6 000 (a GROUP BY lo_custkey). At SF 0.2 a
// GROUP BY c_nation, lo_quantity, d_year (8 750 slots) took about a third
// less time under this cap than under 2^13, which sends it to the index,
// on 1 and 2 workers alike.
const denseCap = 1 << 16

// denseSlots reports how many slots a dense fold of spec needs, 0 when its
// output folds into the index instead: it does not fold, or its Domain does
// not bound every key attribute within the attribute's key width, or the
// spans multiply past denseCap.
func denseSlots(spec *OutputSpec) int {
	if spec.Fold == nil || len(spec.Domain) != len(spec.Key.Attrs) {
		return 0
	}
	n := uint64(1)
	for i, r := range spec.Domain {
		span := r.Hi - r.Lo + 1 // 0 for the full 64-bit range
		if r.Hi < r.Lo || r.Hi > keySpaceMax(spec.Key.Bits[i]) || span == 0 || span > denseCap || n*span > denseCap {
			return 0
		}
		n *= span
	}
	return int(n)
}

// A denseFold is one worker's flat aggregation array for the output spec.
// vals holds width words per slot behind one scratch row, the row a second
// fold into a slot is computed in; present has bit s set once slot s holds
// a row. Both are pool chunks, and top, one past the highest slot written,
// bounds what release hands back to be cleared. Neither counts against
// EnvConfig.MemBudget, like the sink's insert buffer: a worker's array
// holds at most (denseCap + 1) × width words and denseCap bits, about
// 512 KiB per payload column and 8 KiB.
type denseFold struct {
	spec    *OutputSpec
	slots   int
	width   int
	vals    []uint64
	present []uint64
	top     int
}

// newDenseFold draws the array of a dense fold of spec with n slots.
func newDenseFold(spec *OutputSpec, n int, rec *arena.Recycler) *denseFold {
	d := &denseFold{spec: spec, slots: n, width: len(spec.Cols)}
	words := (n + 63) / 64
	d.present = arena.NewChunk[uint64](rec, words)[:words]
	if m := (n + 1) * d.width; m > 0 {
		d.vals = arena.NewChunk[uint64](rec, m)[:m]
	}
	return d
}

// slot returns the slot of the key whose attributes sit at ctx offsets
// offs. A value outside its Domain range is a planning error.
func (d *denseFold) slot(ctx []uint64, offs []int) int {
	s := uint64(0)
	for i, r := range d.spec.Domain {
		v, span := ctx[offs[i]]-r.Lo, r.Hi-r.Lo+1
		if v >= span {
			panic(fmt.Sprintf("core: output %q: %s = %d lies outside its Domain [%d, %d]",
				d.spec.Name, d.spec.Key.Attrs[i], ctx[offs[i]], r.Lo, r.Hi))
		}
		s = s*span + v
	}
	return int(s)
}

// key returns the composed output key of slot s.
func (d *denseFold) key(s int) uint64 {
	k, rest, shift := uint64(0), uint64(s), uint(0)
	dom := d.spec.Domain
	for i := len(dom) - 1; i >= 0; i-- {
		r := dom[i]
		span := r.Hi - r.Lo + 1
		k |= (rest%span + r.Lo) << shift
		rest /= span
		shift += d.spec.Key.Bits[i]
	}
	return k
}

// row returns slot s's payload row; row(-1) is the scratch row.
func (d *denseFold) row(s int) []uint64 {
	off := (s + 1) * d.width
	return d.vals[off : off+d.width : off+d.width]
}

// claim marks slot s present and returns its row, fresh == false when the
// slot already held one.
func (d *denseFold) claim(s int) (row []uint64, fresh bool) {
	row = d.row(s)
	if w, bit := s>>6, uint64(1)<<(s&63); d.present[w]&bit == 0 {
		d.present[w] |= bit
		d.top = max(d.top, s+1)
		return row, true
	}
	return row, false
}

// absorb folds src's rows into d, slot by slot.
func (d *denseFold) absorb(src *denseFold) {
	src.each(func(s int) {
		if row, fresh := d.claim(s); fresh {
			copy(row, src.row(s))
		} else if d.width > 0 {
			d.spec.Fold(row, src.row(s))
		}
	})
}

// each visits the present slots in ascending order.
func (d *denseFold) each(visit func(s int)) {
	for w := 0; w<<6 < d.top; w++ {
		for word := d.present[w]; word != 0; word &= word - 1 {
			visit(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// emit inserts the present slots into idx in ascending key order, batched
// through keys and rows (both of capacity ≥ 1), and returns the longest
// batch, the written prefix of the two buffers.
func (d *denseFold) emit(idx Index, keys []uint64, rows [][]uint64) int {
	keys, rows = keys[:0], rows[:0]
	high := 0
	flush := func() {
		high = max(high, len(keys))
		if d.width == 0 {
			idx.InsertBatch(keys, nil)
		} else {
			idx.InsertBatch(keys, rows)
		}
		keys, rows = keys[:0], rows[:0]
	}
	d.each(func(s int) {
		keys = append(keys, d.key(s))
		rows = append(rows, d.row(s))
		if len(keys) == cap(keys) {
			flush()
		}
	})
	if len(keys) > 0 {
		flush()
	}
	return high
}

// release parks the array's chunks at their written length.
func (d *denseFold) release(rec *arena.Recycler) {
	putScratch(rec, d.present, (d.top+63)/64)
	putScratch(rec, d.vals, (d.top+1)*d.width)
	d.vals, d.present = nil, nil
}
