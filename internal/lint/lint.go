// Package lint registers QPPT's invariant analyzers.
//
// Each analyzer encodes one invariant the type system and the tests do not
// already enforce — resource teardown trails, and declarations nothing
// shipped or measured reaches. They run together, over the whole program,
// as cmd/qpptvet; see the individual packages for the exact rules and
// their documented heuristics.
package lint

import (
	"qppt/internal/lint/closetrail"
	"qppt/internal/lint/qlint"
	"qppt/internal/lint/unreached"
)

// Suite returns every registered analyzer, in stable order. Adding an
// analyzer here obligates unit tests (testdata + analysistest-style
// _test.go) and fixture coverage; the registry tests enforce both.
func Suite() []*qlint.Analyzer {
	return []*qlint.Analyzer{
		closetrail.Analyzer,
		unreached.Analyzer,
	}
}
