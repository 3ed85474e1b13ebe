// Command qpptvet runs QPPT's invariant analyzers (closetrail,
// unreached — see internal/lint) over the whole module in one run:
//
//	go run ./cmd/qpptvet ./...
//
// It type-checks every non-test package of the module in the current
// directory, and reads the benchmark module under it as a user of that
// code. Findings print as file:line:col: [analyzer] message; exit status 1
// reports that findings exist, 2 that the run itself failed. Suppress a
// finding with an auditable comment on the flagged line or the line above:
//
//	//qpptvet:ignore <analyzer> <reason>
//
// An ignore without a reason, or one that covers no finding, is itself a
// finding.
package main

import (
	"fmt"
	"os"

	"qppt/internal/lint"
	"qppt/internal/lint/qlint"
)

func main() {
	if args := os.Args[1:]; len(args) > 1 || len(args) == 1 && args[0] != "./..." {
		fmt.Fprintln(os.Stderr, "usage: qpptvet [./...]  (the whole module is one program)")
		os.Exit(2)
	}
	os.Exit(vet())
}

func vet() int {
	prog, err := qlint.Load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpptvet:", err)
		return 2
	}
	diags, err := qlint.Run(lint.Suite(), prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpptvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qpptvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
