package ssb

import (
	"fmt"
	"sort"
)

// QueryIDs lists the thirteen SSB queries in benchmark order.
var QueryIDs = []string{"1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3"}

// A QueryResult is a normalized query result: attribute names plus rows in
// the query's ORDER BY order (ties broken by the remaining columns so that
// results compare exactly across engines).
type QueryResult struct {
	Attrs []string
	Rows  [][]uint64
}

// orderRows sorts rows by the given columns (negative = that column
// descending, encoded as -(col+1)), breaking ties with all remaining
// columns ascending to make the order total.
func orderRows(rows [][]uint64, keys ...int) {
	if len(rows) == 0 {
		return
	}
	width := len(rows[0])
	used := make([]bool, width)
	full := append([]int{}, keys...)
	for _, k := range keys {
		c := k
		if c < 0 {
			c = -c - 1
		}
		used[c] = true
	}
	for c := 0; c < width; c++ {
		if !used[c] {
			full = append(full, c)
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, k := range full {
			c, desc := k, false
			if c < 0 {
				c, desc = -c-1, true
			}
			if ra[c] != rb[c] {
				if desc {
					return ra[c] > rb[c]
				}
				return ra[c] < rb[c]
			}
		}
		return false
	})
}

// pack packs small fields (each < 2^16) into one uint64 group key for the
// baseline engines' hash aggregations.
func pack(fields ...uint64) uint64 {
	var k uint64
	for _, f := range fields {
		k = k<<16 | (f & 0xFFFF)
	}
	return k
}

// unpack splits a packed key back into n fields.
func unpack(k uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = k & 0xFFFF
		k >>= 16
	}
	return out
}

// querySchema returns the normalized output attributes per query.
func querySchema(qid string) []string {
	switch qid {
	case "1.1", "1.2", "1.3":
		return []string{"revenue"}
	case "2.1", "2.2", "2.3":
		return []string{"d_year", "p_brand1", "revenue"}
	case "3.1":
		return []string{"c_nation", "s_nation", "d_year", "revenue"}
	case "3.2", "3.3", "3.4":
		return []string{"c_city", "s_city", "d_year", "revenue"}
	case "4.1":
		return []string{"d_year", "c_nation", "profit"}
	case "4.2":
		return []string{"d_year", "s_nation", "p_category", "profit"}
	case "4.3":
		return []string{"d_year", "s_city", "p_brand1", "profit"}
	}
	panic(fmt.Sprintf("ssb: unknown query %q", qid))
}
