// Package qppt is the root package of the unreached test module: its
// exported API is a root.
package qppt

import "qppt/internal/shapes"

// Total is part of the API, so everything it refers to is reached.
func Total(sides []int) int { return shapes.Sum(sides) }

// helper is unexported: the API does not make it a root.
func helper() {} // want `func helper is unreached`
