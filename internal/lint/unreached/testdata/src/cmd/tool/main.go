// Command tool is a main package: main is a root.
package main

import (
	"fmt"

	"qppt/internal/shapes"
)

func main() { fmt.Println(shapes.Describe(3)) }
