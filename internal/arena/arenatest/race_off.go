//go:build !race

package arenatest

// RaceEnabled reports whether the race detector is compiled in.
//
//qpptvet:ignore unreached test support: the tree packages' allocation tests skip under -race through it
const RaceEnabled = false
