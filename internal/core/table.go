package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"qppt/internal/arena"
	"qppt/internal/key"
)

// A KeySpec declares what an indexed table is indexed on: one attribute, or
// several packed into an order-preserving composed key (most significant
// field first). The bit widths drive both the composed-key layout and the
// KISS-vs-prefix-tree decision for the index structure.
type KeySpec struct {
	Attrs []string
	Bits  []uint
}

// SimpleKey is a KeySpec for a single attribute of the given width.
func SimpleKey(attr string, bits uint) KeySpec {
	return KeySpec{Attrs: []string{attr}, Bits: []uint{bits}}
}

// GroupKey is a KeySpec for a grouping key composed of several attributes.
func GroupKey(attrs []string, bits []uint) KeySpec {
	return KeySpec{Attrs: attrs, Bits: bits}
}

// TotalBits reports the composed key width.
func (ks KeySpec) TotalBits() uint {
	var total uint
	for _, b := range ks.Bits {
		total += b
	}
	if total == 0 {
		return 1 // keyless (single-group) tables use the constant key 0
	}
	return total
}

// Composer returns the key composer for multi-attribute specs, or nil for
// simple (or keyless) specs.
func (ks KeySpec) Composer() *key.Composer {
	if len(ks.Attrs) < 2 {
		return nil
	}
	return key.MustComposer(ks.Bits...)
}

// Field returns the position of attr among the key attributes, or -1.
func (ks KeySpec) Field(attr string) int {
	for i, a := range ks.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

func (ks KeySpec) String() string {
	if len(ks.Attrs) == 0 {
		return "⟨const⟩"
	}
	return strings.Join(ks.Attrs, "·")
}

// An IndexedTable is the unit of data exchange between QPPT operators: a
// set of tuples stored inside a prefix-tree index, indexed on Key, with a
// fixed-width payload row holding the attributes in Cols. Base indexes and
// intermediate results share this representation; base indexes additionally
// carry the owning relation's name.
type IndexedTable struct {
	// Name identifies the table in plans and statistics (e.g. "lineorder
	// [orderdate]" for a base index, "σ_part" for an intermediate).
	Name string
	// Key is the attribute layout of the index key.
	Key KeySpec
	// Cols names the payload attributes, in payload-row order.
	Cols []string
	// Idx is the underlying index structure.
	Idx Index

	byName map[string]int
	// pooled marks an operator output whose index draws its chunks from a
	// recycler; it is what arms Release. Base indexes never set it.
	pooled bool
	// filter is a base index's key filter, with its value arrays when it
	// gathers (nil: newKeyFilter's rule gives none), built once, when a
	// select-join first asks.
	filterOnce sync.Once
	filter     *keyFilter
}

// Release returns the table's index storage to the chunk pool it was built
// from: the caller is done reading the table and nothing may touch Idx
// afterwards. The executor releases every intermediate this way when its
// last consumer finishes, and whoever ran the plan does the same for the
// result once the rows are extracted, so a query's result index is
// recycled like any other. Release is idempotent, and a no-op for anything
// that is not a pool-backed operator output: catalog base indexes, a nil
// table (a failed or cancelled plan has none). Otherwise it calls the
// index's own spill.Freezer Release, which every Index has; a frozen
// (spilled) index holds no chunks, so releasing it does nothing.
func (t *IndexedTable) Release() {
	if t == nil || !t.pooled {
		return
	}
	t.pooled = false
	t.Idx.Release()
}

// newOutputTable wraps an operator's output index built against rec (nil:
// plain heap allocation, nothing to release).
func newOutputTable(spec *OutputSpec, idx Index, rec *arena.Recycler) *IndexedTable {
	t := NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx)
	t.pooled = rec != nil
	return t
}

// NewIndexedTable wraps an index with its attribute layout. The payload
// width of idx must match len(cols). The index must not change afterwards:
// a probe stage keeps a base index's key filter with the table.
func NewIndexedTable(name string, ks KeySpec, cols []string, idx Index) *IndexedTable {
	if idx.PayloadWidth() != len(cols) {
		panic(fmt.Sprintf("core: index payload width %d != %d columns", idx.PayloadWidth(), len(cols)))
	}
	t := &IndexedTable{Name: name, Key: ks, Cols: cols, Idx: idx}
	t.byName = make(map[string]int, len(cols))
	for i, c := range cols {
		t.byName[c] = i
	}
	return t
}

// Shape builds an index-less IndexedTable that only carries the attribute
// layout. Plan builders use shapes to resolve context offsets (CtxOffsets)
// for operators whose inputs are other operators' future outputs; shapes
// must not be executed.
func Shape(name string, ks KeySpec, cols []string) *IndexedTable {
	t := &IndexedTable{Name: name, Key: ks, Cols: cols}
	t.byName = make(map[string]int, len(cols))
	for i, c := range cols {
		t.byName[c] = i
	}
	return t
}

// Col returns the payload position of the named attribute, or -1.
func (t *IndexedTable) Col(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// Rows reports the number of tuples in the table.
func (t *IndexedTable) Rows() int { return t.Idx.Rows() }

// Keys reports the number of distinct index keys.
func (t *IndexedTable) Keys() int { return t.Idx.Keys() }

// A Ref names an attribute to be read from one of an operator's inputs.
// Operators compile Refs into flat offsets into their combination context
// (see pipeline.go), so per-tuple evaluation is a single indexed load.
type Ref struct {
	// Input is the operator-relative input ordinal (0 = first/left).
	Input int
	// Attr is the attribute name, resolved against the input's key
	// fields and payload columns.
	Attr string
}

// A RowExpr produces one output-row value: either an attribute reference or
// a computed expression over the combination context (used for derived
// measures such as extendedprice*discount).
type RowExpr struct {
	// Ref is used when Fn is nil.
	Ref Ref
	// Fn computes the value from the flat combination context. Ctx
	// offsets for Fn are resolved with CtxOffsets at plan-build time.
	Fn func(ctx []uint64) uint64
}

// Attr is shorthand for a RowExpr reading an attribute.
func Attr(input int, name string) RowExpr { return RowExpr{Ref: Ref{Input: input, Attr: name}} }

// Computed is shorthand for a RowExpr computing a derived value.
func Computed(fn func(ctx []uint64) uint64) RowExpr { return RowExpr{Fn: fn} }

// An OutputSpec describes the cooperative output of an operator: the key
// the *next* operator requests, the payload attributes to carry along, and
// optionally a fold function that turns the output index into a
// grouping/aggregating index (integration level 1, paper Section 4).
type OutputSpec struct {
	// Name labels the resulting intermediate table.
	Name string
	// Key declares the output key attributes; empty Attrs mean a
	// keyless (single group) output with constant key 0.
	Key KeySpec
	// KeyRefs locate the key attributes in the operator's inputs, one
	// per Key.Attrs entry.
	KeyRefs []Ref
	// Cols names the output payload attributes.
	Cols []string
	// ColExprs produce the payload values, one per Cols entry.
	ColExprs []RowExpr
	// Fold, if non-nil, aggregates payload rows per output key.
	Fold func(dst, src []uint64)
	// Domain, if it holds one range per Key attribute, bounds each
	// attribute's values: a value outside its range is a planning error,
	// and a dense fold panics on it. A folding output whose domain spans
	// few keys (denseSlots) aggregates in a flat array before it fills
	// the output index; a keyless folding output always does, in one
	// slot. The arrays are not counted against EnvConfig.MemBudget: a
	// worker's holds 8 B per payload column and one bit per slot, for at
	// most denseCap (2^16) slots: 512 KiB per column and 8 KiB.
	Domain []KeyRange
}

// FoldSum returns a fold function summing the payload positions in cols
// (all other positions keep the first row's values — correct for grouping
// keys carried redundantly in payloads).
func FoldSum(cols ...int) func(dst, src []uint64) {
	return func(dst, src []uint64) {
		for _, c := range cols {
			dst[c] += src[c]
		}
	}
}

// A KeyRange is one inclusive key interval of a selection predicate.
type KeyRange struct{ Lo, Hi uint64 }

// A KeyPred is a union of inclusive key ranges, the index-key predicate
// form of the selection/having operator. Point predicates are single
// one-element ranges; IN lists are multiple ranges; BETWEEN is one range.
// Ranges should be sorted and non-overlapping.
type KeyPred []KeyRange

// Point returns a predicate matching exactly k.
func Point(k uint64) KeyPred { return KeyPred{{Lo: k, Hi: k}} }

// Has reports whether v lies in one of the ranges, searched in their
// sorted order. An empty predicate, or one range with Lo > Hi, has no
// value.
func (p KeyPred) Has(v uint64) bool {
	_, in := slices.BinarySearchFunc(p, v, func(r KeyRange, v uint64) int {
		switch {
		case r.Hi < v:
			return -1
		case r.Lo > v:
			return 1
		}
		return 0
	})
	return in
}
