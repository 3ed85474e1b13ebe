// Package catalog manages tables, dictionaries, and base indexes for QPPT.
//
// The catalog is the bridge between the row-store storage layer and the
// query processor: it loads relations (building order-preserving string
// dictionaries on the way), tracks per-column key widths, and builds the
// base indexes that QPPT plans start from — pure secondary indexes (payload
// is just the record identifier) or partially clustered indexes whose
// payload carries the join/selection/grouping attributes that successive
// operators will need (paper Section 3).
package catalog

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"qppt/internal/core"
	"qppt/internal/storage"
)

// RIDCol is the reserved attribute name under which base indexes expose
// the record identifier in their payloads.
const RIDCol = "rid"

// A Catalog owns the storage manager and all table metadata.
type Catalog struct {
	mgr    *storage.Manager
	tables map[string]*TableInfo
}

// New returns an empty catalog with a fresh storage manager.
func New() *Catalog {
	return &Catalog{mgr: storage.NewManager(), tables: make(map[string]*TableInfo)}
}

// Manager exposes the underlying storage manager (for transactional use).
func (c *Catalog) Manager() *storage.Manager { return c.mgr }

// TableInfo bundles a stored table with its dictionaries, column
// statistics, and base indexes.
type TableInfo struct {
	Name   string
	Table  *storage.Table
	Schema *storage.Schema

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

// ColumnData carries one column of load input: Ints for TypeInt columns,
// Strs for TypeString columns (the other slice stays nil).
type ColumnData struct {
	Name string
	Ints []uint64
	Strs []string
}

// Load creates a table and bulk-loads it. Column order defines the schema;
// string columns get order-preserving dictionaries built from their values.
// All columns must have the same length.
func (c *Catalog) Load(name string, cols []ColumnData) (*TableInfo, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already loaded", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q has no columns", name)
	}
	n := -1
	schemaCols := make([]storage.Column, len(cols))
	for i, col := range cols {
		var cn int
		if col.Strs != nil {
			cn = len(col.Strs)
			schemaCols[i] = storage.Column{Name: col.Name, Type: storage.TypeString}
		} else {
			cn = len(col.Ints)
			schemaCols[i] = storage.Column{Name: col.Name, Type: storage.TypeInt}
		}
		if n == -1 {
			n = cn
		} else if cn != n {
			return nil, fmt.Errorf("catalog: column %q has %d values, want %d", col.Name, cn, n)
		}
	}
	schema, err := storage.NewSchema(schemaCols...)
	if err != nil {
		return nil, err
	}
	tbl, err := c.mgr.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	ti := &TableInfo{
		Name: name, Table: tbl, Schema: schema,
		dicts:   make(map[string]*Dict),
		colBits: make(map[string]uint),
		indexes: make(map[string]*core.IndexedTable),
	}

	// Encode columns: dictionary codes for strings, raw values for ints.
	encoded := make([][]uint64, len(cols))
	for i, col := range cols {
		if col.Strs != nil {
			b := NewDictBuilder()
			for _, s := range col.Strs {
				b.Add(s)
			}
			d := b.Build()
			ti.dicts[col.Name] = d
			enc := make([]uint64, n)
			for j, s := range col.Strs {
				enc[j] = d.MustCode(s)
			}
			encoded[i] = enc
		} else {
			encoded[i] = col.Ints
		}
		var maxV uint64
		for _, v := range encoded[i] {
			if v > maxV {
				maxV = v
			}
		}
		ti.colBits[col.Name] = uint(max(bits.Len64(maxV), 1))
	}

	// Row-major bulk load (this is a row store).
	rows := make([][]uint64, n)
	flat := make([]uint64, n*len(cols))
	for j := 0; j < n; j++ {
		row := flat[j*len(cols) : (j+1)*len(cols)]
		for i := range cols {
			row[i] = encoded[i][j]
		}
		rows[j] = row
	}
	tbl.BulkLoad(rows)
	ti.colBits[RIDCol] = uint(max(bits.Len64(uint64(n)), 1))
	c.tables[name] = ti
	return ti, nil
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
	// Include are the payload attributes for partial clustering.
	Include []string
}

// IndexName derives the canonical name of an index. Two indexes on the
// same key columns but with different clustered payloads are distinct
// physical structures, so the Include list is part of the name.
func (def IndexDef) IndexName(table string) string {
	name := table + "[" + strings.Join(def.KeyCols, ",") + "]"
	if len(def.Include) > 0 {
		name += "{" + strings.Join(def.Include, ",") + "}"
	}
	return name
}

// BuildIndex builds (or returns the cached) base index for def over the
// current committed snapshot. The resulting indexed table's key spec uses
// the minimal column widths, so narrow domains get KISS-Trees. Safe for
// concurrent use: racing builders of the same index serialize on the
// table's index lock and all but one get the cached result.
func (ti *TableInfo) BuildIndex(def IndexDef) (*core.IndexedTable, error) {
	return ti.BuildIndexCtx(context.Background(), def)
}

// BuildIndexCtx is BuildIndex with cancellation: the build scans every
// committed row of the table — the most expensive cold-start step a query
// can trigger — and polls ctx between row batches, so a dead client stops
// a full fact-table scan (and releases the index lock for the builders
// waiting behind it).
func (ti *TableInfo) BuildIndexCtx(ctx context.Context, def IndexDef) (*core.IndexedTable, error) {
	ti.idxMu.Lock()
	defer ti.idxMu.Unlock()
	return ti.buildIndexLocked(ctx, def)
}

func (ti *TableInfo) buildIndexLocked(ctx context.Context, def IndexDef) (*core.IndexedTable, error) {
	name := def.IndexName(ti.Name)
	if t, ok := ti.indexes[name]; ok {
		return t, nil
	}
	keyPos := make([]int, len(def.KeyCols))
	keyBits := make([]uint, len(def.KeyCols))
	for i, kc := range def.KeyCols {
		if keyPos[i] = ti.Schema.Col(kc); keyPos[i] < 0 {
			return nil, fmt.Errorf("catalog: unknown key column %s.%s", ti.Name, kc)
		}
		keyBits[i] = ti.Bits(kc)
	}
	cols := append([]string{RIDCol}, def.Include...)
	colPos := make([]int, len(def.Include))
	for i, ic := range def.Include {
		if colPos[i] = ti.Schema.Col(ic); colPos[i] < 0 {
			return nil, fmt.Errorf("catalog: unknown include column %s.%s", ti.Name, ic)
		}
	}
	ks := core.GroupKey(def.KeyCols, keyBits)
	comp := ks.Composer()
	idx := core.NewIndex(core.IndexConfig{
		KeyBits:      ks.TotalBits(),
		PayloadWidth: len(cols),
	})
	row := make([]uint64, len(cols))
	fields := make([]uint64, len(keyPos))
	ts := tiNow(ti)
	scanned := 0
	ti.Table.ScanCommitted(ts, func(rid uint64, data []uint64) bool {
		if scanned++; scanned&8191 == 0 && ctx.Err() != nil {
			return false // cancelled mid-build; the partial index is dropped
		}
		var k uint64
		if comp == nil {
			k = data[keyPos[0]]
		} else {
			for i, p := range keyPos {
				fields[i] = data[p]
			}
			k = comp.Compose(fields...)
		}
		row[0] = rid
		for i, p := range colPos {
			row[i+1] = data[p]
		}
		idx.Insert(k, row)
		return true
	})
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

// Index returns a previously built index by canonical name, or nil.
func (ti *TableInfo) Index(name string) *core.IndexedTable {
	ti.idxMu.Lock()
	defer ti.idxMu.Unlock()
	return ti.indexes[name]
}

// RefreshIndexes rebuilds every built base index from the current
// committed snapshot. Base indexes have to care for transactional
// isolation (paper Section 3); this repository's OLAP lifecycle is
// load → index → query, so after committed mutations the indexes are
// refreshed wholesale rather than maintained incrementally. Plans built
// before a refresh keep reading their old (consistent) index snapshots;
// new plans see the new state.
func (ti *TableInfo) RefreshIndexes() error {
	ti.idxMu.Lock()
	defer ti.idxMu.Unlock()
	defs := make([]IndexDef, 0, len(ti.indexes))
	for _, t := range ti.indexes {
		def := IndexDef{KeyCols: t.Key.Attrs}
		// Payload column 0 is always the rid; the rest are the includes.
		def.Include = append(def.Include, t.Cols[1:]...)
		defs = append(defs, def)
	}
	ti.indexes = make(map[string]*core.IndexedTable, len(defs))
	// Column stats may have grown (new rows can widen a key domain).
	ti.refreshColBits()
	for _, def := range defs {
		if _, err := ti.buildIndexLocked(context.Background(), def); err != nil {
			return err
		}
	}
	return nil
}

// refreshColBits recomputes the minimal key widths from the committed
// data, so rebuilt indexes pick correct structures for grown domains.
func (ti *TableInfo) refreshColBits() {
	cols := ti.Schema.Cols()
	maxes := make([]uint64, len(cols))
	n := 0
	//qpptvet:ignore ctxpoll bulk-load/DDL path: runs before the table is served, outside any query context
	ti.Table.ScanCommitted(tiNow(ti), func(rid uint64, row []uint64) bool {
		for i, v := range row {
			if v > maxes[i] {
				maxes[i] = v
			}
		}
		n++
		return true
	})
	for i, c := range cols {
		ti.colBits[c.Name] = uint(max(bits.Len64(maxes[i]), 1))
	}
	ti.colBits[RIDCol] = uint(max(bits.Len64(uint64(ti.Table.NumRIDs())), 1))
}

// Indexes lists the canonical names of all built indexes.
func (ti *TableInfo) Indexes() []string {
	ti.idxMu.Lock()
	defer ti.idxMu.Unlock()
	names := make([]string, 0, len(ti.indexes))
	for n := range ti.indexes {
		names = append(names, n)
	}
	return names
}

// tiNow reads the table at the newest committed snapshot. Base index
// builds happen after bulk load, so "now" sees everything.
func tiNow(ti *TableInfo) uint64 {
	// The storage manager clock is monotone; bulk-loaded rows are visible
	// from timestamp 1 on.
	return ^uint64(0) >> 1 // any TS >= clock works for committed reads
}

// Rows reports the table cardinality (committed rows).
func (ti *TableInfo) Rows() int { return ti.Table.NumRIDs() }

// Columns materializes the committed table as encoded column arrays (dict
// codes for strings). Baseline engines load from here so that all engines
// operate on identical encodings and results compare exactly.
func (ti *TableInfo) Columns() map[string][]uint64 {
	n := ti.Rows()
	cols := ti.Schema.Cols()
	out := make(map[string][]uint64, len(cols))
	arrays := make([][]uint64, len(cols))
	for i, c := range cols {
		arrays[i] = make([]uint64, 0, n)
		out[c.Name] = nil // placeholder; set after the scan
	}
	//qpptvet:ignore ctxpoll baseline loader path: one-shot materialization at load time, outside any query context
	ti.Table.ScanCommitted(tiNow(ti), func(rid uint64, row []uint64) bool {
		for i := range cols {
			arrays[i] = append(arrays[i], row[i])
		}
		return true
	})
	for i, c := range cols {
		out[c.Name] = arrays[i]
	}
	return out
}
