package catalog

import (
	"fmt"
	"sort"
	"strconv"
)

// A Dict is an order-preserving string dictionary: codes are assigned in
// sorted string order, so unsigned comparison of codes equals
// lexicographic comparison of the strings. This is what lets QPPT run
// string predicates — points, IN lists, and BETWEEN ranges — directly on
// prefix-tree keys.
//
// Dictionaries are frozen at load time (the standard bulk-load-then-query
// OLAP lifecycle); adding strings later would require recoding.
type Dict struct {
	strs  []string
	codes map[string]uint64
}

// A DictBuilder accumulates the distinct strings of a column.
type DictBuilder struct {
	set map[string]struct{}
}

// NewDictBuilder returns an empty builder.
func NewDictBuilder() *DictBuilder {
	return &DictBuilder{set: make(map[string]struct{})}
}

// Add records one string occurrence.
func (b *DictBuilder) Add(s string) { b.set[s] = struct{}{} }

// Build freezes the dictionary, assigning order-preserving codes.
func (b *DictBuilder) Build() *Dict {
	d := &Dict{strs: make([]string, 0, len(b.set)), codes: make(map[string]uint64, len(b.set))}
	for s := range b.set {
		d.strs = append(d.strs, s)
	}
	sort.Strings(d.strs)
	for i, s := range d.strs {
		d.codes[s] = uint64(i)
	}
	return d
}

// Len reports the number of distinct strings.
func (d *Dict) Len() int { return len(d.strs) }

// Code returns the code of s and whether s is in the dictionary.
func (d *Dict) Code(s string) (uint64, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// MustCode is Code that panics for unknown strings, for static queries.
func (d *Dict) MustCode(s string) uint64 {
	c, ok := d.codes[s]
	if !ok {
		panic(fmt.Sprintf("catalog: string %q not in dictionary", s))
	}
	return c
}

// String returns the string for a code.
func (d *Dict) String(code uint64) string {
	if code >= uint64(len(d.strs)) {
		return string(d.AppendString(nil, code))
	}
	return d.strs[code]
}

// AppendString appends the string for a code to dst. A code outside the
// dictionary renders as "<code N>".
func (d *Dict) AppendString(dst []byte, code uint64) []byte {
	if code >= uint64(len(d.strs)) {
		dst = append(dst, "<code "...)
		dst = strconv.AppendUint(dst, code, 10)
		return append(dst, '>')
	}
	return append(dst, d.strs[code]...)
}

// A CellEncoder renders the values of one column as text: dictionary
// strings for a string column, decimal numbers otherwise. It is resolved
// once per column (TableInfo.Encoder), so rendering a cell looks nothing
// up. The zero value renders numbers.
type CellEncoder struct {
	Dict *Dict // nil: a numeric column
}

// AppendText appends v's text to dst.
func (e CellEncoder) AppendText(dst []byte, v uint64) []byte {
	if e.Dict != nil {
		return e.Dict.AppendString(dst, v)
	}
	return strconv.AppendUint(dst, v, 10)
}

// String returns v's text.
func (e CellEncoder) String(v uint64) string {
	if e.Dict != nil {
		return e.Dict.String(v)
	}
	return strconv.FormatUint(v, 10)
}

// CeilCode returns the smallest code whose string is >= s, and ok == false
// if every string is smaller. Together with FloorCode it converts a string
// BETWEEN predicate to an inclusive code range.
func (d *Dict) CeilCode(s string) (uint64, bool) {
	i := sort.SearchStrings(d.strs, s)
	if i == len(d.strs) {
		return 0, false
	}
	return uint64(i), true
}

// FloorCode returns the largest code whose string is <= s, and ok == false
// if every string is larger.
func (d *Dict) FloorCode(s string) (uint64, bool) {
	i := sort.SearchStrings(d.strs, s)
	if i < len(d.strs) && d.strs[i] == s {
		return uint64(i), true
	}
	if i == 0 {
		return 0, false
	}
	return uint64(i - 1), true
}
