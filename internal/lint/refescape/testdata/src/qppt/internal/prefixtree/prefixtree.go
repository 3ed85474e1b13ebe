// Package prefixtree is a stub of qppt/internal/prefixtree for analyzer
// tests.
package prefixtree

// Tree is a stub arena-backed tree.
type Tree struct{}

// Release hands the tree's chunks to the recycler.
func (t *Tree) Release() {}
