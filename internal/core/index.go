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
// The package provides the selection/having operator, the set operators
// (intersect, distinct union), the 2-way join-group, the composed
// multi-way/star join, and the composed select-join, all built on the
// synchronous index scan and on batched (buffered) index operations.
package core

import (
	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
)

// Index is the common surface of the two prefix-tree index structures QPPT
// deploys: the generalized prefix tree (arbitrary key width) and the
// KISS-Tree (32-bit keys). QPPT decides per intermediate index which
// structure to use, at plan time, based on the key width (paper
// Section 2.2); NewIndex encodes that decision.
type Index interface {
	// Insert adds one payload row under key (aggregating if the index
	// was created with a fold function).
	Insert(key uint64, row []uint64)
	// InsertBatch adds many rows at once, level-synchronously (paper
	// Section 2.3). rows may be nil for width-0 indexes.
	InsertBatch(keys []uint64, rows [][]uint64)
	// Lookup returns the payload rows stored under key, or nil.
	Lookup(key uint64) *duplist.List
	// LookupBatch resolves many keys level-synchronously; vals is nil
	// for absent keys.
	LookupBatch(keys []uint64, visit func(i int, vals *duplist.List))
	// Iterate visits all keys in ascending order.
	Iterate(visit func(key uint64, vals *duplist.List) bool) bool
	// Range visits all keys in [lo, hi] in ascending order.
	Range(lo, hi uint64, visit func(key uint64, vals *duplist.List) bool) bool
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
}

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
		return kissIndex{kisstree.MustNew(kisstree.Config{
			PayloadWidth: cfg.PayloadWidth,
			Fold:         cfg.Fold,
			Recycler:     cfg.Recycler,
		})}
	}
	return ptIndex{prefixtree.MustNew(prefixtree.Config{
		KeyBits:      cfg.KeyBits,
		PayloadWidth: cfg.PayloadWidth,
		Fold:         cfg.Fold,
		Recycler:     cfg.Recycler,
	})}
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
	var insertRun func(key uint64, run []uint64)
	switch t := idx.(type) {
	case kissIndex:
		insertRun = t.t.InsertRun
	case ptIndex:
		insertRun = t.t.InsertRun
	}
	w, start := cfg.PayloadWidth, 0
	for i, k := range keys {
		insertRun(k, rows[start*w:ends[i]*w])
		start = ends[i]
	}
	return idx
}

// ptIndex adapts *prefixtree.Tree to Index.
type ptIndex struct{ t *prefixtree.Tree }

func (p ptIndex) Insert(key uint64, row []uint64)            { p.t.Insert(key, row) }
func (p ptIndex) InsertBatch(keys []uint64, rows [][]uint64) { p.t.InsertBatch(keys, rows) }
func (p ptIndex) Keys() int                                  { return p.t.Keys() }
func (p ptIndex) Rows() int                                  { return p.t.Rows() }
func (p ptIndex) PayloadWidth() int                          { return p.t.PayloadWidth() }
func (p ptIndex) KeyBits() uint                              { return p.t.KeyBits() }
func (p ptIndex) Bytes() int                                 { return p.t.Bytes() }
func (p ptIndex) Min() (uint64, bool)                        { return p.t.Min() }
func (p ptIndex) Max() (uint64, bool)                        { return p.t.Max() }

func (p ptIndex) Lookup(key uint64) *duplist.List {
	if lf := p.t.Lookup(key); lf != nil {
		return &lf.Vals
	}
	return nil
}

func (p ptIndex) LookupBatch(keys []uint64, visit func(i int, vals *duplist.List)) {
	p.t.LookupBatch(keys, func(i int, lf *prefixtree.Leaf) {
		if lf != nil {
			visit(i, &lf.Vals)
		} else {
			visit(i, nil)
		}
	})
}

func (p ptIndex) Iterate(visit func(key uint64, vals *duplist.List) bool) bool {
	return p.t.Iterate(func(lf *prefixtree.Leaf) bool { return visit(lf.Key, &lf.Vals) })
}

func (p ptIndex) Range(lo, hi uint64, visit func(key uint64, vals *duplist.List) bool) bool {
	return p.t.Range(lo, hi, func(lf *prefixtree.Leaf) bool { return visit(lf.Key, &lf.Vals) })
}

// kissIndex adapts *kisstree.Tree to Index.
type kissIndex struct{ t *kisstree.Tree }

func (k kissIndex) Insert(key uint64, row []uint64)            { k.t.Insert(key, row) }
func (k kissIndex) InsertBatch(keys []uint64, rows [][]uint64) { k.t.InsertBatch(keys, rows) }
func (k kissIndex) Keys() int                                  { return k.t.Keys() }
func (k kissIndex) Rows() int                                  { return k.t.Rows() }
func (k kissIndex) PayloadWidth() int                          { return k.t.PayloadWidth() }
func (k kissIndex) KeyBits() uint                              { return kisstree.KeyBits }
func (k kissIndex) Bytes() int                                 { return k.t.Bytes() }
func (k kissIndex) Min() (uint64, bool)                        { return k.t.Min() }
func (k kissIndex) Max() (uint64, bool)                        { return k.t.Max() }

func (k kissIndex) Lookup(key uint64) *duplist.List {
	if lf := k.t.Lookup(key); lf != nil {
		return &lf.Vals
	}
	return nil
}

func (k kissIndex) LookupBatch(keys []uint64, visit func(i int, vals *duplist.List)) {
	k.t.LookupBatch(keys, func(i int, lf *kisstree.Leaf) {
		if lf != nil {
			visit(i, &lf.Vals)
		} else {
			visit(i, nil)
		}
	})
}

func (k kissIndex) Iterate(visit func(key uint64, vals *duplist.List) bool) bool {
	return k.t.Iterate(func(lf *kisstree.Leaf) bool { return visit(lf.Key, &lf.Vals) })
}

func (k kissIndex) Range(lo, hi uint64, visit func(key uint64, vals *duplist.List) bool) bool {
	return k.t.Range(lo, hi, func(lf *kisstree.Leaf) bool { return visit(lf.Key, &lf.Vals) })
}
