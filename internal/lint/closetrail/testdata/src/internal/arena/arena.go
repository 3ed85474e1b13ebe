// Package arena is a stub of qppt/internal/arena for analyzer tests.
package arena

// Recycler is a stub chunk pool.
type Recycler struct{}
