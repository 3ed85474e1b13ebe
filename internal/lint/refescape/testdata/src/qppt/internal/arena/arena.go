// Package arena is a stub of qppt/internal/arena for analyzer tests.
package arena

// Ref is a tagged compact pointer into arena storage.
type Ref uint32

// Nil is the zero Ref.
const Nil Ref = 0

// NodeRef builds a Ref from a node index.
func NodeRef(idx uint32) Ref { return Ref(idx + 1) }

// Index recovers the index.
func (r Ref) Index() uint32 { return uint32(r) - 1 }

// Arena is a stub chunked arena.
type Arena struct{ n int }

func (a *Arena) Alloc() Ref   { a.n++; return NodeRef(uint32(a.n)) }
func (a *Arena) Reset()       { a.n = 0 }
func (a *Arena) Detach()      {}
func (a *Arena) At(r Ref) int { return int(r.Index()) }
