package ssb

import (
	"fmt"

	"qppt/internal/catalog"
	"qppt/internal/colstore"
)

// A Dataset is a fully loaded SSB instance: the catalog's tables (QPPT
// plans build the base indexes they read on first use, see
// catalog.TableInfo.BuildIndexCtx), and the same encoded column arrays
// handed to the two baseline engines to scan — one copy, shared read-only.
// All three engines see the exact same dictionary encodings, so query
// results are comparable bit for bit.
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
