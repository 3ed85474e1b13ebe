// Package refs exercises the refescape analyzer: arena.Ref compact
// pointers must not be stored in struct fields outside the arena-owned
// packages nor read after their backing storage is invalidated.
package refs

import (
	"qppt/internal/arena"
	"qppt/internal/core"
	"qppt/internal/prefixtree"
)

// holder is NOT an arena-owned type, so persisting a Ref in it dangles.
type holder struct {
	ref arena.Ref
	n   int
}

var global arena.Ref

// Flagged: field store outside the owned packages.
func storeField(h *holder, a *arena.Arena) {
	h.ref = a.Alloc() // want `arena.Ref stored in struct field h.ref`
}

// Flagged: composite literal smuggling a Ref into a struct.
func storeLiteral(a *arena.Arena) holder {
	return holder{ref: a.Alloc()} // want `arena.Ref stored in struct literal`
}

// Flagged: package-level variable.
func storeGlobal(a *arena.Arena) {
	global = a.Alloc() // want `arena.Ref stored in package-level variable global`
}

// Clean: locals and parameters may carry Refs.
func localUse(a *arena.Arena) int {
	r := a.Alloc()
	return a.At(r)
}

// Flagged: reading a Ref after the arena was reset.
func useAfterReset(a *arena.Arena) int {
	r := a.Alloc()
	a.Reset()
	return a.At(r) // want `arena.Ref r is read after a.Reset\(\)`
}

// Flagged: the invalidation reaches the read through a loop back edge.
func useAfterResetLoop(a *arena.Arena, n int) int {
	sum := 0
	r := a.Alloc()
	for i := 0; i < n; i++ {
		sum += a.At(r) // want `arena.Ref r is read after a.Reset\(\)`
		a.Reset()
	}
	return sum
}

// Clean: the Ref is reassigned after the reset before any read.
func refreshAfterReset(a *arena.Arena) int {
	r := a.Alloc()
	a.Reset()
	r = a.Alloc()
	return a.At(r)
}

// Clean: the read happens strictly before the invalidation.
func readThenReset(a *arena.Arena) int {
	r := a.Alloc()
	v := a.At(r)
	a.Detach()
	return v
}

// Clean: Ref defined after the invalidation is fresh.
func freshAfterDetach(a *arena.Arena) int {
	a.Detach()
	r := a.Alloc()
	return a.At(r)
}

// Flagged: parameters count as live Refs too, and a tree's Release hands
// its chunks to the recycler.
func useParamAfterTreeRelease(a *arena.Arena, t *prefixtree.Tree, r arena.Ref) int {
	t.Release()
	return a.At(r) // want `arena.Ref r is read after t.Release\(\)`
}

// Flagged: releasing an indexed table recycles its index's chunks, which
// kills compact pointers like an arena Reset.
func useAfterTableRelease(a *arena.Arena, t *core.IndexedTable) int {
	r := a.Alloc()
	t.Release()
	return a.At(r) // want `arena.Ref r is read after t.Release\(\)`
}

// Clean: other core types' Release methods recycle nothing.
func useAfterPlanRelease(a *arena.Arena, p *core.Plan) int {
	r := a.Alloc()
	p.Release()
	return a.At(r)
}

// Suppressed: audited exception.
func auditedUse(a *arena.Arena) int {
	r := a.Alloc()
	a.Reset()
	//qpptvet:ignore refescape the chunk is known to stay resident in this test helper
	return a.At(r)
}
