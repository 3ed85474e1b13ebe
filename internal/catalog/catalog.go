// Package catalog manages tables, dictionaries, and base indexes for QPPT.
//
// The catalog holds the base data and hands the query processor its
// starting points: it loads relations as encoded column arrays (building
// order-preserving string dictionaries on the way), tracks per-column key
// widths, and builds the base indexes that QPPT plans start from — pure
// secondary indexes (payload is just the record identifier) or partially
// clustered indexes whose payload carries the join/selection/grouping
// attributes that successive operators will need (paper Section 3). QPPT
// operators read and write nothing but indexes, so once a base index is
// built the engine never looks at a base record again; the column arrays
// stay only to build further indexes and to feed the baseline engines.
package catalog

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"qppt/internal/core"
)

// RIDCol is the reserved attribute name under which base indexes expose
// the record identifier in their payloads.
const RIDCol = "rid"

// A Catalog owns the loaded tables.
type Catalog struct {
	tables map[string]*TableInfo
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableInfo)}
}

// TableInfo bundles a loaded table — its encoded columns in schema order —
// with its dictionaries, column statistics, and base indexes. A row's
// record identifier is its position in the column arrays.
type TableInfo struct {
	Name string

	cols [][]uint64     // encoded column arrays in schema order; never written after Load
	pos  map[string]int // column name → position in cols
	rows int

	dicts   map[string]*Dict // per string column
	colBits map[string]uint  // minimal key width per column

	// idxMu guards the index cache: concurrent sessions plan against the
	// same catalog, and the first plan to need a base index builds it.
	// The lock is held across a build, so racing planners wait for the
	// one build instead of duplicating the table scan.
	idxMu   sync.Mutex
	indexes map[string]*core.IndexedTable // guarded by idxMu
}

// Table returns the metadata of a loaded table, or nil.
func (c *Catalog) Table(name string) *TableInfo { return c.tables[name] }

// ColumnData carries one column of load input: Ints for integer columns,
// Strs for string columns (the other slice stays nil).
type ColumnData struct {
	Name string
	Ints []uint64
	Strs []string
}

// Load creates a table from its columns. Column order defines the schema;
// string columns get order-preserving dictionaries built from their values
// and are kept as dictionary codes. All columns must have the same length
// and distinct names, and none may be called RIDCol.
//
// Load takes ownership of every ColumnData.Ints: the table keeps the slice
// it was passed (no copy), so the caller must not write to it afterwards.
func (c *Catalog) Load(name string, cols []ColumnData) (*TableInfo, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already loaded", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q has no columns", name)
	}
	ti := &TableInfo{
		Name:    name,
		cols:    make([][]uint64, len(cols)),
		pos:     make(map[string]int, len(cols)),
		dicts:   make(map[string]*Dict),
		colBits: make(map[string]uint, len(cols)+1),
		indexes: make(map[string]*core.IndexedTable),
	}
	for i, col := range cols {
		if col.Name == RIDCol {
			return nil, fmt.Errorf("catalog: table %q: column name %q is reserved for the record identifier", name, RIDCol)
		}
		if _, dup := ti.pos[col.Name]; dup {
			return nil, fmt.Errorf("catalog: table %q: duplicate column %q", name, col.Name)
		}
		cn := len(col.Ints)
		if col.Strs != nil {
			cn = len(col.Strs)
		}
		if i == 0 {
			ti.rows = cn
		} else if cn != ti.rows {
			return nil, fmt.Errorf("catalog: column %q has %d values, want %d", col.Name, cn, ti.rows)
		}
		// Encode: dictionary codes for strings, the caller's values for ints.
		enc := col.Ints
		if col.Strs != nil {
			b := NewDictBuilder()
			for _, s := range col.Strs {
				b.Add(s)
			}
			d := b.Build()
			ti.dicts[col.Name] = d
			enc = make([]uint64, ti.rows)
			for j, s := range col.Strs {
				enc[j] = d.MustCode(s)
			}
		}
		var maxV uint64
		for _, v := range enc {
			maxV = max(maxV, v)
		}
		ti.cols[i], ti.pos[col.Name] = enc, i
		ti.colBits[col.Name] = uint(max(bits.Len64(maxV), 1))
	}
	ti.colBits[RIDCol] = uint(max(bits.Len64(uint64(ti.rows)), 1))
	c.tables[name] = ti
	return ti, nil
}

// Col returns the schema position of the named column, or -1.
func (ti *TableInfo) Col(name string) int {
	if i, ok := ti.pos[name]; ok {
		return i
	}
	return -1
}

// Dict returns the dictionary of a string column, or nil.
func (ti *TableInfo) Dict(col string) *Dict { return ti.dicts[col] }

// Code encodes a string constant for predicates against col. It panics for
// unknown columns or strings (static query text against loaded data).
func (ti *TableInfo) Code(col, s string) uint64 {
	d := ti.dicts[col]
	if d == nil {
		panic(fmt.Sprintf("catalog: column %s.%s has no dictionary", ti.Name, col))
	}
	return d.MustCode(s)
}

// Encoder returns the cell encoder of a column: its dictionary for a
// string column, numbers for any other.
func (ti *TableInfo) Encoder(col string) CellEncoder { return CellEncoder{Dict: ti.dicts[col]} }

// Decode renders a column value for output: dictionary strings decoded,
// integers printed as numbers.
func (ti *TableInfo) Decode(col string, v uint64) string { return ti.Encoder(col).String(v) }

// Bits reports the minimal key width of a column (RIDCol for the record
// identifier).
func (ti *TableInfo) Bits(col string) uint {
	b, ok := ti.colBits[col]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown column %s.%s", ti.Name, col))
	}
	return b
}

// An IndexDef describes a base index to build. With Include attributes the
// index is partially clustered: the payload carries those attributes (plus
// the RID) so operators never have to fetch records randomly during
// processing. Without Include it is a pure secondary index (payload = RID
// only).
type IndexDef struct {
	// KeyCols are the indexed attributes, most significant first for
	// composed (multidimensional) keys.
	KeyCols []string
	// Include are the payload attributes for partial clustering, in any
	// order: the index carries them after the RID in sorted order.
	Include []string
}

// IndexName derives the canonical name of an index. Two indexes on the
// same key columns but with different clustered payloads are distinct
// physical structures, so the Include set is part of the name; its order
// is not, so it is named (and laid out) sorted.
func (def IndexDef) IndexName(table string) string {
	name := table + "[" + strings.Join(def.KeyCols, ",") + "]"
	if len(def.Include) > 0 {
		name += "{" + strings.Join(def.sortedInclude(), ",") + "}"
	}
	return name
}

// sortedInclude is Include in the order that names the index and lays out
// its payload; it copies only when the caller's order differs.
func (def IndexDef) sortedInclude() []string {
	if slices.IsSorted(def.Include) {
		return def.Include
	}
	sorted := slices.Clone(def.Include)
	slices.Sort(sorted)
	return sorted
}

// BuildIndex builds (or returns the cached) base index for def. The
// resulting indexed table's key spec uses the minimal column widths, so
// narrow domains get KISS-Trees. Safe for concurrent use: racing builders
// of the same index serialize on the table's index lock and all but one get
// the cached result.
func (ti *TableInfo) BuildIndex(def IndexDef) (*core.IndexedTable, error) {
	return ti.BuildIndexCtx(context.Background(), def)
}

// BuildIndexCtx is BuildIndex with cancellation: the build reads every row
// of the table — the most expensive cold-start step a query can trigger —
// and polls ctx between row batches, so a dead client stops a full
// fact-table pass (and releases the index lock for the builders waiting
// behind it).
func (ti *TableInfo) BuildIndexCtx(ctx context.Context, def IndexDef) (*core.IndexedTable, error) {
	ti.idxMu.Lock()
	defer ti.idxMu.Unlock()
	name := def.IndexName(ti.Name)
	if t, ok := ti.indexes[name]; ok {
		return t, nil
	}
	def.Include = def.sortedInclude()
	keyCols := make([][]uint64, len(def.KeyCols))
	keyBits := make([]uint, len(def.KeyCols))
	for i, kc := range def.KeyCols {
		p := ti.Col(kc)
		if p < 0 {
			return nil, fmt.Errorf("catalog: unknown key column %s.%s", ti.Name, kc)
		}
		keyCols[i], keyBits[i] = ti.cols[p], ti.Bits(kc)
	}
	cols := append([]string{RIDCol}, def.Include...)
	incCols := make([][]uint64, len(def.Include))
	for i, ic := range def.Include {
		p := ti.Col(ic)
		if p < 0 {
			return nil, fmt.Errorf("catalog: unknown include column %s.%s", ti.Name, ic)
		}
		incCols[i] = ti.cols[p]
	}
	ks := core.GroupKey(def.KeyCols, keyBits)
	comp := ks.Composer()
	idx := core.NewIndex(core.IndexConfig{
		KeyBits:      ks.TotalBits(),
		PayloadWidth: len(cols),
	})
	row := make([]uint64, len(cols))
	fields := make([]uint64, len(keyCols))
	for rid := 0; rid < ti.rows; rid++ {
		if (rid+1)&8191 == 0 && ctx.Err() != nil {
			break // cancelled mid-build; the partial index is dropped
		}
		k := keyCols[0][rid]
		if comp != nil {
			for i, c := range keyCols {
				fields[i] = c[rid]
			}
			k = comp.Compose(fields...)
		}
		row[0] = uint64(rid)
		for i, c := range incCols {
			row[i+1] = c[rid]
		}
		idx.Insert(k, row)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := core.NewIndexedTable(name, ks, cols, idx)
	ti.indexes[name] = t
	return t, nil
}

// MustIndex is BuildIndex that panics on error, for static plans.
func (ti *TableInfo) MustIndex(keyCols []string, include ...string) *core.IndexedTable {
	t, err := ti.BuildIndex(IndexDef{KeyCols: keyCols, Include: include})
	if err != nil {
		panic(err)
	}
	return t
}

// Rows reports the table cardinality.
func (ti *TableInfo) Rows() int { return ti.rows }

// Columns returns the table as encoded column arrays by name (dict codes
// for strings). Baseline engines load from here so that all engines operate
// on identical encodings and results compare exactly. The arrays are the
// table's own — for an integer column, the slice Load was passed — and base
// indexes are built from them: callers must treat them as read-only.
func (ti *TableInfo) Columns() map[string][]uint64 {
	out := make(map[string][]uint64, len(ti.pos))
	for name, i := range ti.pos {
		out[name] = ti.cols[i]
	}
	return out
}
