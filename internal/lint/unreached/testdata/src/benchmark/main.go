// Command benchmark stands for the benchmark module: what it refers to is
// reached, though the module itself is not analyzed.
package main

import "qppt/internal/shapes"

func main() { _ = shapes.BenchOnly() }
