// Package colstore is the column-at-a-time baseline engine, standing in
// for MonetDB in the paper's evaluation (Section 5).
//
// The engine follows the BAT-algebra execution style: every operator
// processes a full column and fully materializes its result (candidate/oid
// lists, join index columns, reconstructed value columns) before the next
// operator runs. Its characteristic strength is tight sequential scans;
// its characteristic weakness — the one the paper's Figure 7 exploits — is
// *tuple reconstruction*: every attribute that survives a join has to be
// re-fetched positionally through the join's oid lists, so the
// materialization volume grows with the number of join columns.
//
// Queries are composed from these primitives in package ssb, mirroring how
// a MonetDB query plan would chain BAT operators.
package colstore

import (
	"fmt"

	"qppt/internal/hashbase"
)

// A Table is a set of equal-length columns.
type Table struct {
	name string
	cols map[string][]uint64
}

// A DB is a named collection of column tables.
type DB struct {
	tables map[string]*Table
}

// NewDB returns an empty column store.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// AddTable registers a table from its columns; all columns must have equal
// length.
func (db *DB) AddTable(name string, cols map[string][]uint64) (*Table, error) {
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("colstore: table %q already exists", name)
	}
	n := -1
	for cn, c := range cols {
		if n == -1 {
			n = len(c)
		} else if len(c) != n {
			return nil, fmt.Errorf("colstore: column %q length %d != %d", cn, len(c), n)
		}
	}
	t := &Table{name: name, cols: cols}
	db.tables[name] = t
	return t, nil
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Col returns a column by name; it panics for unknown columns (queries are
// static).
func (t *Table) Col(name string) []uint64 {
	c, ok := t.cols[name]
	if !ok {
		panic(fmt.Sprintf("colstore: unknown column %s.%s", t.name, name))
	}
	return c
}

// SelectRange scans a full column and materializes the oid list of values
// in [lo, hi].
func SelectRange(col []uint64, lo, hi uint64) []uint32 {
	out := []uint32{}
	for i, v := range col {
		if v >= lo && v <= hi {
			out = append(out, uint32(i))
		}
	}
	return out
}

// SelectIn scans a full column and materializes the oid list of values in
// set.
func SelectIn(col []uint64, set map[uint64]bool) []uint32 {
	out := []uint32{}
	for i, v := range col {
		if set[v] {
			out = append(out, uint32(i))
		}
	}
	return out
}

// RefineRange filters an existing candidate list against another column —
// the column-at-a-time form of a conjunctive predicate.
func RefineRange(col []uint64, cands []uint32, lo, hi uint64) []uint32 {
	out := make([]uint32, 0)
	for _, oid := range cands {
		if v := col[oid]; v >= lo && v <= hi {
			out = append(out, oid)
		}
	}
	return out
}

// Fetch materializes col[oid] for every oid — the tuple-reconstruction
// primitive. Every surviving attribute of every join pays one Fetch.
func Fetch(col []uint64, oids []uint32) []uint64 {
	out := make([]uint64, len(oids))
	for i, oid := range oids {
		out[i] = col[oid]
	}
	return out
}

// BuildJoin builds the hash side of a join from the key values of the
// given oids. nil means "the whole column" (an unselected dimension); an
// empty non-nil slice means "no rows" (a selection that matched nothing) —
// the Select/Refine primitives always return non-nil slices.
func BuildJoin(col []uint64, oids []uint32) *hashbase.MultiMap {
	if oids == nil {
		m := hashbase.NewMultiMap(len(col))
		for i, v := range col {
			m.Insert(v, uint32(i))
		}
		return m
	}
	m := hashbase.NewMultiMap(len(oids))
	for _, oid := range oids {
		m.Insert(col[oid], oid)
	}
	return m
}

// ProbeJoin probes every probeKeys value (a fully materialized key column,
// typically the output of a Fetch) against the build side, materializing
// matching oid pairs.
func ProbeJoin(probeKeys []uint64, probeOids []uint32, build *hashbase.MultiMap) (pOut, bOut []uint32) {
	for i, k := range probeKeys {
		p := uint32(i)
		if probeOids != nil {
			p = probeOids[i]
		}
		build.ForEach(k, func(b uint32) {
			pOut = append(pOut, p)
			bOut = append(bOut, b)
		})
	}
	return pOut, bOut
}

// SemiJoin keeps the probe positions whose key exists in the build side —
// the column form of an existence (dimension filter) join.
func SemiJoin(probeKeys []uint64, probeOids []uint32, build *hashbase.MultiMap) []uint32 {
	var out []uint32
	for i, k := range probeKeys {
		if build.Contains(k) {
			if probeOids != nil {
				out = append(out, probeOids[i])
			} else {
				out = append(out, uint32(i))
			}
		}
	}
	return out
}

// GroupSum aggregates measure by the packed group keys, returning a
// hash-ordered materialized group table. Packing multi-column group keys
// is the caller's job (queries know their domains).
func GroupSum(packedKeys, measure []uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i, k := range packedKeys {
		out[k] += measure[i]
	}
	return out
}
