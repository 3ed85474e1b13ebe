// Command benchmark stands for the fixture's benchmark module.
package main

import "fixture.example/qppt/internal/core"

func main() { _ = core.BenchOnly() }
