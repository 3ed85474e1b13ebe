package ssb

import (
	"fmt"

	"qppt/internal/catalog"
)

// A Dataset is a fully loaded SSB instance: the catalog's tables (QPPT
// plans build the base indexes they read on first use, see
// catalog.TableInfo.BuildIndexCtx), and the same encoded column arrays,
// which the column-at-a-time and vector-at-a-time baseline engines scan —
// one copy, shared read-only. The baselines run the same SQL texts
// (SQLTexts, or any text of the planner's star subset via RunColumnSQL) and
// see the same dictionary encodings, so results compare bit for bit.
type Dataset struct {
	SF float64

	Cat       *catalog.Catalog
	Lineorder *catalog.TableInfo
	Date      *catalog.TableInfo
	Customer  *catalog.TableInfo
	Supplier  *catalog.TableInfo
	Part      *catalog.TableInfo

	// Raw holds every table's columns by name (the catalog's own arrays,
	// see TableInfo.Columns).
	Raw map[string]map[string][]uint64
}

// Load generates and loads an SSB instance at the given scale factor.
func Load(cfg GenConfig) (*Dataset, error) {
	data := Generate(cfg)
	ds := &Dataset{SF: data.SF, Cat: catalog.New(), Raw: map[string]map[string][]uint64{}}
	for name, cols := range data.Tables {
		ti, err := ds.Cat.Load(name, cols)
		if err != nil {
			return nil, fmt.Errorf("ssb: loading %s: %w", name, err)
		}
		ds.Raw[name] = ti.Columns()
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
