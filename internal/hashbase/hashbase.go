// Package hashbase provides the hash-table baselines that the paper
// compares prefix trees against (Section 2.5, Figure 3): separate-chaining
// tables in the style of the GLib GHashTable (prime bucket counts) and of
// the paper-era boost::unordered_map (power-of-two bucket counts), plus an
// open-addressing linear-probing table as a stronger modern baseline the
// paper did not have. All map uint64 keys to uint64 values with upsert
// semantics, matching the paper's insert/update workload.
//
// The package also provides MultiMap, an arena-chained uint64→uint32
// multimap used as the hash-join kernel of the column-at-a-time and
// vector-at-a-time baseline engines.
package hashbase

// hashKey is Fibonacci hashing — cheap, well-distributed for both dense
// and sparse keys, and the same function for both tables so Figure 3
// differences come from layout, not hash quality.
func hashKey(k uint64) uint64 {
	return k * 0x9E3779B97F4A7C15
}

// primes roughly double, like GLib's internal prime table.
var primes = []int{
	11, 23, 47, 97, 199, 409, 823, 1741, 3469, 6949, 14033, 28411, 57557,
	116731, 236897, 480881, 976369, 1982627, 4026031, 8175383, 16601593,
	33712729, 68460391, 139022417, 282312799, 573292817,
}

// ChainedMap is a separate-chaining hash table: every entry is a
// separately allocated chain node, so lookups chase at least one pointer
// after the bucket array. With prime bucket counts it models the GLib
// GHashTable; with power-of-two bucket counts it models the
// boost::unordered_map of the paper's era (also node-based chaining).
//
//qpptvet:ignore unreached a Figure 3 baseline: only the root bench_test.go times it
type ChainedMap struct {
	buckets []*chainEntry
	primeIx int // -1 for power-of-two sizing
	n       int
}

type chainEntry struct {
	next *chainEntry
	key  uint64
	val  uint64
}

// NewChainedMap returns a GLib-style prime-sized table pre-sized for
// capHint entries.
//
//qpptvet:ignore unreached a Figure 3 baseline: only the root bench_test.go times it
func NewChainedMap(capHint int) *ChainedMap {
	ix := 0
	for ix < len(primes)-1 && primes[ix]*3/4 < capHint {
		ix++
	}
	return &ChainedMap{buckets: make([]*chainEntry, primes[ix]), primeIx: ix}
}

// NewBoostMap returns a Boost-style power-of-two chained table pre-sized
// for capHint entries.
//
//qpptvet:ignore unreached a Figure 3 baseline: only the root bench_test.go times it
func NewBoostMap(capHint int) *ChainedMap {
	capacity := 16
	for capacity*3/4 < capHint {
		capacity *= 2
	}
	return &ChainedMap{buckets: make([]*chainEntry, capacity), primeIx: -1}
}

// Len reports the number of keys.
func (m *ChainedMap) Len() int { return m.n }

// Insert sets key to val (upsert).
func (m *ChainedMap) Insert(key, val uint64) {
	b := hashKey(key) % uint64(len(m.buckets))
	for e := m.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			e.val = val
			return
		}
	}
	m.buckets[b] = &chainEntry{next: m.buckets[b], key: key, val: val}
	m.n++
	if m.n > len(m.buckets)*3/4 && (m.primeIx < 0 || m.primeIx < len(primes)-1) {
		m.grow()
	}
}

func (m *ChainedMap) grow() {
	old := m.buckets
	if m.primeIx >= 0 {
		m.primeIx++
		m.buckets = make([]*chainEntry, primes[m.primeIx])
	} else {
		m.buckets = make([]*chainEntry, 2*len(old))
	}
	for _, e := range old {
		for e != nil {
			next := e.next
			b := hashKey(e.key) % uint64(len(m.buckets))
			e.next = m.buckets[b]
			m.buckets[b] = e
			e = next
		}
	}
}

// Lookup returns the value for key and whether it is present.
func (m *ChainedMap) Lookup(key uint64) (uint64, bool) {
	for e := m.buckets[hashKey(key)%uint64(len(m.buckets))]; e != nil; e = e.next {
		if e.key == key {
			return e.val, true
		}
	}
	return 0, false
}

// OpenMap is an open-addressing linear-probing hash table with
// power-of-two capacity (the extra modern baseline): entries live inline in
// one array, so successful lookups usually touch a single cache line but
// the table must stay below ~87% load.
//
//qpptvet:ignore unreached a Figure 3 baseline: only the root bench_test.go times it
type OpenMap struct {
	keys []uint64
	vals []uint64
	used []bool
	mask uint64
	n    int
}

// NewOpenMap returns a table pre-sized for capHint entries.
//
//qpptvet:ignore unreached a Figure 3 baseline: only the root bench_test.go times it
func NewOpenMap(capHint int) *OpenMap {
	capacity := 16
	for capacity*7/8 < capHint {
		capacity *= 2
	}
	return &OpenMap{
		keys: make([]uint64, capacity),
		vals: make([]uint64, capacity),
		used: make([]bool, capacity),
		mask: uint64(capacity - 1),
	}
}

// Len reports the number of keys.
func (m *OpenMap) Len() int { return m.n }

// Insert sets key to val (upsert).
func (m *OpenMap) Insert(key, val uint64) {
	if m.n >= len(m.keys)*7/8 {
		m.grow()
	}
	i := hashKey(key) & m.mask
	for m.used[i] {
		if m.keys[i] == key {
			m.vals[i] = val
			return
		}
		i = (i + 1) & m.mask
	}
	m.used[i], m.keys[i], m.vals[i] = true, key, val
	m.n++
}

func (m *OpenMap) grow() {
	oldK, oldV, oldU := m.keys, m.vals, m.used
	capacity := len(m.keys) * 2
	m.keys = make([]uint64, capacity)
	m.vals = make([]uint64, capacity)
	m.used = make([]bool, capacity)
	m.mask = uint64(capacity - 1)
	for i, u := range oldU {
		if !u {
			continue
		}
		j := hashKey(oldK[i]) & m.mask
		for m.used[j] {
			j = (j + 1) & m.mask
		}
		m.used[j], m.keys[j], m.vals[j] = true, oldK[i], oldV[i]
	}
}

// Lookup returns the value for key and whether it is present.
func (m *OpenMap) Lookup(key uint64) (uint64, bool) {
	i := hashKey(key) & m.mask
	for m.used[i] {
		if m.keys[i] == key {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// MultiMap maps uint64 keys to lists of uint32 values with all entries in
// one arena (no per-entry allocation). It is the build side of the
// baseline engines' hash joins.
type MultiMap struct {
	heads   []int32 // bucket heads into entries, -1 = empty
	entries []mmEntry
	mask    uint64
}

type mmEntry struct {
	key  uint64
	next int32
	val  uint32
}

// NewMultiMap returns a multimap pre-sized for capHint entries.
func NewMultiMap(capHint int) *MultiMap {
	capacity := 16
	for capacity < capHint {
		capacity *= 2
	}
	m := &MultiMap{
		heads:   make([]int32, capacity),
		entries: make([]mmEntry, 0, capHint),
		mask:    uint64(capacity - 1),
	}
	for i := range m.heads {
		m.heads[i] = -1
	}
	return m
}

// Insert appends val under key (duplicate keys accumulate).
func (m *MultiMap) Insert(key uint64, val uint32) {
	b := hashKey(key) & m.mask
	m.entries = append(m.entries, mmEntry{key: key, next: m.heads[b], val: val})
	m.heads[b] = int32(len(m.entries) - 1)
}

// ForEach visits every value stored under key, newest first.
func (m *MultiMap) ForEach(key uint64, visit func(val uint32)) {
	for i := m.heads[hashKey(key)&m.mask]; i >= 0; i = m.entries[i].next {
		if m.entries[i].key == key {
			visit(m.entries[i].val)
		}
	}
}

// Contains reports whether key has at least one entry.
func (m *MultiMap) Contains(key uint64) bool {
	for i := m.heads[hashKey(key)&m.mask]; i >= 0; i = m.entries[i].next {
		if m.entries[i].key == key {
			return true
		}
	}
	return false
}
