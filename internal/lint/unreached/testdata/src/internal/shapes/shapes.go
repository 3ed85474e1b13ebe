// Package shapes holds every case of the unreached rule the other
// packages of the test module do not.
package shapes

import "fmt"

// Sum is reached from the root package's API.
func Sum(sides []int) int {
	n := 0
	for _, s := range sides {
		n += s
	}
	return n
}

// A shape is the interface Describe measures through.
type shape interface{ Area() int }

type square struct{ side int }

// Area is never named: it is reached because square is and implements
// shape, which reached code uses.
func (s square) Area() int { return s.side * s.side }

// Perimeter implements no interface the program uses.
func (s square) Perimeter() int { return 4 * s.side } // want `method square.Perimeter is unreached`

// A Size is an iota const group; only Large is named.
type Size int

const (
	Small Size = iota // want `const Small is unreached`
	Large
)

// Config has a field nothing reads or sets.
type Config struct {
	Label  string
	Unused int // want `field Config.Unused is unreached`
}

// Describe is reached from a main package.
func Describe(side int) string {
	var sh shape = square{side}
	c := Config{Label: "square"}
	return fmt.Sprint(c.Label, sh.Area(), Large)
}

// BenchOnly is reached only from the benchmark module.
func BenchOnly() int { return 2 }

// TestOnly is referenced only from a _test.go file.
func TestOnly() int { return 3 } // want `func TestOnly is unreached`

type orphan struct{} // want `type orphan is unreached, with its methods Name`

func (orphan) Name() string { return "orphan" }

// Kept is reached from nowhere but carries a reasoned suppression, which
// makes it a root.
//
//qpptvet:ignore unreached kept on purpose, to exercise the suppression
func Kept() int { return keptHelper() }

// keptHelper is reached through the suppressed Kept.
func keptHelper() int { return 4 }

//qpptvet:ignore unreached Large is reached, so this covers nothing // want `covers no finding`
var _ = 0
