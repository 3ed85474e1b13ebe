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
// Package ssb composes these primitives into a plan for any SQL text of the
// planner's star subset, mirroring how a MonetDB query plan would chain BAT
// operators.
package colstore

import "qppt/internal/hashbase"

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

// RefineIn filters an existing candidate list to the values in set.
func RefineIn(col []uint64, cands []uint32, set map[uint64]bool) []uint32 {
	out := make([]uint32, 0)
	for _, oid := range cands {
		if set[col[oid]] {
			out = append(out, oid)
		}
	}
	return out
}

// Fetch materializes col[oid] for every oid — the tuple-reconstruction
// primitive. Every surviving attribute of every join pays one Fetch, and
// so does the oid list itself.
func Fetch[T any](col []T, oids []uint32) []T {
	out := make([]T, len(oids))
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
// one (probe position, build oid) pair per match. Like the Select/Refine
// primitives it returns non-nil slices.
func ProbeJoin(probeKeys []uint64, build *hashbase.MultiMap) (pos, bOut []uint32) {
	pos, bOut = []uint32{}, []uint32{}
	for i, k := range probeKeys {
		build.ForEach(k, func(b uint32) {
			pos = append(pos, uint32(i))
			bOut = append(bOut, b)
		})
	}
	return pos, bOut
}

// GroupSum sums each measure column by the packed group keys, returning a
// hash-ordered materialized group table: one sum per measure for every
// distinct key (none when there is no measure). Packing multi-column group
// keys is the caller's job.
func GroupSum(packedKeys []uint64, measures [][]uint64) map[uint64][]uint64 {
	out := make(map[uint64][]uint64)
	for i, k := range packedKeys {
		sums, ok := out[k]
		if !ok {
			sums = make([]uint64, len(measures))
			out[k] = sums
		}
		for m, col := range measures {
			sums[m] += col[i]
		}
	}
	return out
}
