package ssb

import (
	"fmt"

	"qppt/internal/catalog"
	"qppt/internal/colstore"
	"qppt/internal/core"
)

// A Dataset is a fully loaded SSB instance: the catalog's tables with their
// base indexes (for QPPT), and the same encoded column arrays handed to the
// two baseline engines to scan — one copy, shared read-only. All three
// engines see the exact same dictionary encodings, so query results are
// comparable bit for bit.
type Dataset struct {
	SF float64

	Cat       *catalog.Catalog
	Lineorder *catalog.TableInfo
	Date      *catalog.TableInfo
	Customer  *catalog.TableInfo
	Supplier  *catalog.TableInfo
	Part      *catalog.TableInfo

	// ColDB is the column-at-a-time engine's database; Raw holds the
	// same column arrays (the catalog's own, see TableInfo.Columns) for
	// the vector engine's scans.
	ColDB *colstore.DB
	Raw   map[string]map[string][]uint64
}

// Load generates and loads an SSB instance at the given scale factor.
func Load(cfg GenConfig) (*Dataset, error) {
	data := Generate(cfg)
	ds := &Dataset{SF: data.SF, Cat: catalog.New(), ColDB: colstore.NewDB(), Raw: map[string]map[string][]uint64{}}
	for name, cols := range data.Tables {
		ti, err := ds.Cat.Load(name, cols)
		if err != nil {
			return nil, fmt.Errorf("ssb: loading %s: %w", name, err)
		}
		arrays := ti.Columns()
		if _, err := ds.ColDB.AddTable(name, arrays); err != nil {
			return nil, err
		}
		ds.Raw[name] = arrays
	}
	ds.Lineorder = ds.Cat.Table("lineorder")
	ds.Date = ds.Cat.Table("date")
	ds.Customer = ds.Cat.Table("customer")
	ds.Supplier = ds.Cat.Table("supplier")
	ds.Part = ds.Cat.Table("part")
	if err := ds.buildBaseIndexes(); err != nil {
		return nil, err
	}
	return ds, nil
}

// MustLoad is Load that panics on error, for benchmarks and examples.
func MustLoad(cfg GenConfig) *Dataset {
	ds, err := Load(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// buildBaseIndexes provisions the base indexes the thirteen query plans
// start from (paper Section 3: "these indexes are either already present
// or are created once and remain in the data pool for future queries").
// All fact-table indexes are partially clustered so operators never fetch
// records randomly during processing.
func (ds *Dataset) buildBaseIndexes() error {
	defs := []struct {
		ti  *catalog.TableInfo
		def catalog.IndexDef
	}{
		// Fact table, one clustered index per join/selection entry point.
		{ds.Lineorder, catalog.IndexDef{KeyCols: []string{"lo_orderdate"},
			Include: []string{"lo_quantity", "lo_discount", "lo_extendedprice"}}},
		{ds.Lineorder, catalog.IndexDef{KeyCols: []string{"lo_partkey"},
			Include: []string{"lo_suppkey", "lo_orderdate", "lo_revenue"}}},
		{ds.Lineorder, catalog.IndexDef{KeyCols: []string{"lo_custkey"},
			Include: []string{"lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost"}}},
		// Multidimensional index for the decomposed Q1.x selection plans.
		{ds.Lineorder, catalog.IndexDef{KeyCols: []string{"lo_discount", "lo_quantity"},
			Include: []string{"lo_orderdate", "lo_extendedprice"}}},
		// Dimension entry points: one index per selection attribute.
		{ds.Date, catalog.IndexDef{KeyCols: []string{"d_datekey"}, Include: []string{"d_year"}}},
		{ds.Date, catalog.IndexDef{KeyCols: []string{"d_year"}, Include: []string{"d_datekey", "d_weeknuminyear"}}},
		{ds.Date, catalog.IndexDef{KeyCols: []string{"d_yearmonthnum"}, Include: []string{"d_datekey"}}},
		{ds.Date, catalog.IndexDef{KeyCols: []string{"d_yearmonth"}, Include: []string{"d_datekey", "d_year"}}},
		{ds.Customer, catalog.IndexDef{KeyCols: []string{"c_region"}, Include: []string{"c_custkey", "c_nation"}}},
		{ds.Customer, catalog.IndexDef{KeyCols: []string{"c_nation"}, Include: []string{"c_custkey", "c_city"}}},
		{ds.Customer, catalog.IndexDef{KeyCols: []string{"c_city"}, Include: []string{"c_custkey"}}},
		{ds.Supplier, catalog.IndexDef{KeyCols: []string{"s_region"}, Include: []string{"s_suppkey"}}},
		{ds.Supplier, catalog.IndexDef{KeyCols: []string{"s_nation"}, Include: []string{"s_suppkey", "s_city"}}},
		{ds.Supplier, catalog.IndexDef{KeyCols: []string{"s_city"}, Include: []string{"s_suppkey"}}},
		{ds.Part, catalog.IndexDef{KeyCols: []string{"p_brand1"}, Include: []string{"p_partkey"}}},
		{ds.Part, catalog.IndexDef{KeyCols: []string{"p_category"}, Include: []string{"p_partkey", "p_brand1"}}},
		{ds.Part, catalog.IndexDef{KeyCols: []string{"p_mfgr"}, Include: []string{"p_partkey", "p_brand1", "p_category"}}},
		{ds.Part, catalog.IndexDef{KeyCols: []string{"p_partkey"}, Include: []string{"p_brand1"}}},
	}
	for _, d := range defs {
		if _, err := d.ti.BuildIndex(d.def); err != nil {
			return err
		}
	}
	return nil
}

// Index fetches a previously built base index as a plan input.
func (ds *Dataset) Index(ti *catalog.TableInfo, keyCols []string, include ...string) *core.IndexedTable {
	return ti.MustIndex(keyCols, include...)
}
