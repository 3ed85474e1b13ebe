// Package key provides order-preserving 64-bit key encodings for QPPT
// indexes.
//
// All QPPT index structures (the generalized prefix tree and the KISS-Tree)
// navigate on the big-endian binary representation of an unsigned integer
// key, so any attribute that should be indexed must first be mapped to a
// uint64 whose unsigned order equals the attribute's logical order. This
// package provides that mapping for composed (multi-attribute) keys such as
// the (year, brand1) group-by key of SSB query 2.3. Strings are handled by the catalog's order-preserving
// dictionary, which yields dense uint64 codes that can be used here
// directly.
package key

import "fmt"

// Key is an order-preserving 64-bit index key.
type Key = uint64

// A Composer packs several fixed-width fields into one order-preserving
// composed key. Fields are declared most-significant first, so the composed
// key sorts lexicographically by field order — exactly what a grouped and
// ordered output index needs (the paper's "composed key of the attributes
// year and brand1", Section 3).
type Composer struct {
	widths []uint // bits per field, most significant first
	shifts []uint
}

// NewComposer builds a Composer for the given field widths in bits. The
// widths must each be in [1, 64] and sum to at most 64.
func NewComposer(widths ...uint) (*Composer, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("key: composer needs at least one field")
	}
	var total uint
	for i, w := range widths {
		if w == 0 || w > 64 {
			return nil, fmt.Errorf("key: field %d width %d out of range [1,64]", i, w)
		}
		total += w
	}
	if total > 64 {
		return nil, fmt.Errorf("key: composed width %d exceeds 64 bits", total)
	}
	c := &Composer{widths: widths}
	c.shifts = make([]uint, len(widths))
	shift := total
	for i, w := range widths {
		shift -= w
		c.shifts[i] = shift
	}
	return c, nil
}

// MustComposer is NewComposer that panics on error, for static layouts.
func MustComposer(widths ...uint) *Composer {
	c, err := NewComposer(widths...)
	if err != nil {
		panic(err)
	}
	return c
}

// Compose packs the fields into a single key. Each field value must fit in
// its declared width; oversized values are masked (truncated) to the width,
// which keeps Compose total but callers should validate domains up front.
func (c *Composer) Compose(fields ...uint64) Key {
	if len(fields) != len(c.widths) {
		panic(fmt.Sprintf("key: Compose got %d fields, want %d", len(fields), len(c.widths)))
	}
	var k Key
	for i, f := range fields {
		k |= (f & mask(c.widths[i])) << c.shifts[i]
	}
	return k
}

// Split unpacks a composed key into its fields, appending to dst.
func (c *Composer) Split(k Key, dst []uint64) []uint64 {
	for i := range c.widths {
		dst = append(dst, (k>>c.shifts[i])&mask(c.widths[i]))
	}
	return dst
}

// Field extracts the i-th field of a composed key.
func (c *Composer) Field(k Key, i int) uint64 {
	return (k >> c.shifts[i]) & mask(c.widths[i])
}

func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}
