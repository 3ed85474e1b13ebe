package main

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"
)

// \q and the end of the input end the shell cleanly; a statement line
// longer than the 1 MiB line buffer ends it with bufio.ErrTooLong instead
// of a silent clean exit.
func TestReplEnd(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"quit", "\\q\n", nil},
		{"eof", "", nil},
		{"line-too-long", strings.Repeat("x", 1<<20+1) + "\n", bufio.ErrTooLong},
	} {
		if err := repl(strings.NewReader(tc.in), io.Discard, nil, nil, false); !errors.Is(err, tc.want) {
			t.Errorf("%s: repl = %v, want %v", tc.name, err, tc.want)
		}
	}
}
