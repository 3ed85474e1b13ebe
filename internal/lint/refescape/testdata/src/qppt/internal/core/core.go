// Package core is a stub of qppt/internal/core for analyzer tests.
package core

// IndexedTable is a stub operator output; Release recycles its index.
type IndexedTable struct{ Name string }

func (t *IndexedTable) Release() {}

// Plan is a stub with a Release that recycles nothing.
type Plan struct{}

func (p *Plan) Release() {}
