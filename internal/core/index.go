// Package core implements QPPT's indexed table-at-a-time processing model
// (paper Sections 1, 3 and 4): intermediate indexed tables, cooperative
// operators, and composed operators.
//
// Operators do not exchange tuples, columns, or vectors. Every operator
// consumes one or more indexed tables — sets of tuples stored inside an
// in-memory prefix-tree index — and produces exactly one indexed table as
// output, indexed on the attribute(s) the *next* operator requests. The
// number of "next calls" between operators is thereby reduced to exactly
// one: passing the output index handle.
//
// The package provides two operators: the selection/having operator and
// the composed select-join, which is also the multi-way/star join and,
// with no predicate and no assists, the 2-way join-group. A join of two
// key-indexed inputs is the select-join of the whole driving index. The
// join has one shape, the star: its main input is the fact side, and
// every assist probes with a foreign key of the fact rows, a payload
// column of the main input. Every probe stage batches its lookups through
// the joinbuffer.
package core

import (
	"qppt/internal/arena"
	"qppt/internal/freeze"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
	"qppt/internal/spill"
)

// Leaf is the content node both tree kinds share: a full key and the
// duplicate list of its payload rows. Operators read lf.Key and &lf.Vals
// straight from the leaf an index hands them.
type Leaf = freeze.Leaf

// Index is the common surface of the two prefix-tree index structures QPPT
// deploys: the generalized prefix tree (arbitrary key width) and the
// KISS-Tree (32-bit keys). QPPT decides per intermediate index which
// structure to use, at plan time, based on the key width (paper
// Section 2.2); NewIndex encodes that decision. *prefixtree.Tree and
// *kisstree.Tree implement it directly, spill hooks included, so every index can be frozen under a budget.
type Index interface {
	// Insert adds one payload row under key (aggregating if the index
	// was created with a fold function).
	Insert(key uint64, row []uint64)
	// InsertBatch adds many rows at once, level-synchronously (paper
	// Section 2.3). rows may be nil for width-0 indexes.
	InsertBatch(keys []uint64, rows [][]uint64)
	// Lookup returns the leaf of key, or nil. A key outside the index's
	// key width is a miss.
	Lookup(key uint64) *Leaf
	// LookupBatch resolves many keys level-synchronously; lf is nil for
	// absent keys.
	LookupBatch(keys []uint64, visit func(i int, lf *Leaf))
	// Iterate visits all leaves in ascending key order.
	Iterate(visit func(lf *Leaf) bool) bool
	// Range visits all leaves with keys in [lo, hi] in ascending order.
	Range(lo, hi uint64, visit func(lf *Leaf) bool) bool
	// Keys reports the number of distinct keys.
	Keys() int
	// Rows reports the total number of payload rows.
	Rows() int
	// PayloadWidth reports the row width in uint64 words.
	PayloadWidth() int
	// KeyBits reports the index key width in bits.
	KeyBits() uint
	// Bytes estimates the heap footprint.
	Bytes() int
	// Min and Max report the key bounds (ok == false when empty).
	Min() (uint64, bool)
	Max() (uint64, bool)
	spill.Freezer
}

var (
	_ Index = (*prefixtree.Tree)(nil)
	_ Index = (*kisstree.Tree)(nil)
)

// IndexConfig parameterizes NewIndex.
type IndexConfig struct {
	// KeyBits is the width of the keys this index must hold. Indexes
	// with KeyBits <= 32 use a KISS-Tree, wider ones a prefix tree.
	KeyBits uint
	// PayloadWidth is the number of uint64 attribute values per row.
	PayloadWidth int
	// Fold, if non-nil, makes the index aggregate rows per key.
	Fold func(dst, src []uint64)
	// Recycler, if non-nil, routes the index's chunk storage through a
	// chunk pool (see arena.Recycler): growth draws from it
	// and dropping the index parks the chunks there for the next one.
	Recycler *arena.Recycler
}

// NewIndex creates the index structure QPPT would pick for the given
// configuration: an uncompressed KISS-Tree for keys up to 32 bits (QPPT
// leaves compression off to avoid the RCU copy overhead, paper Section
// 2.2), a generalized prefix tree with the default k′ otherwise.
func NewIndex(cfg IndexConfig) Index {
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 64
	}
	if cfg.KeyBits <= kisstree.KeyBits {
		return kisstree.MustNew(kisstree.Config{
			PayloadWidth: cfg.PayloadWidth,
			Fold:         cfg.Fold,
			Recycler:     cfg.Recycler,
		})
	}
	return prefixtree.MustNew(prefixtree.Config{
		KeyBits:      cfg.KeyBits,
		PayloadWidth: cfg.PayloadWidth,
		Fold:         cfg.Fold,
		Recycler:     cfg.Recycler,
	})
}

// NewSortedIndex builds the index NewIndex picks for cfg from payload rows
// already sorted by key, w = cfg.PayloadWidth ≥ 1 words each: keys ascend
// strictly, and key i owns rows ends[i-1] (0 for the first key) up to
// ends[i]. Each key's rows are one contiguous run, and the index adopts
// every run in place instead of copying it, so the caller must not write
// rows afterwards. It is the bulk load of a base index; cfg.Fold must be
// nil.
func NewSortedIndex(cfg IndexConfig, keys []uint64, ends []int, rows []uint64) Index {
	idx := NewIndex(cfg)
	t := idx.(interface{ InsertRun(uint64, []uint64) }) // either tree kind
	w, start := cfg.PayloadWidth, 0
	for i, k := range keys {
		t.InsertRun(k, rows[start*w:ends[i]*w])
		start = ends[i]
	}
	return idx
}
