package wire

import (
	"io"
	"time"

	"qppt/internal/sql"
)

// An AnswerWriter is the server's result egress — the frameWriter every
// connection streams its answers through — for tests that drive it with
// hand-made results instead of an engine's.
type AnswerWriter struct{ fw frameWriter }

func NewAnswerWriter(w io.Writer) *AnswerWriter { return &AnswerWriter{fw: frameWriter{w: w}} }

// Answer streams one result and flushes, as the serve loop does at the
// end of a Query.
func (a *AnswerWriter) Answer(rows *sql.Rows, flags byte, elapsed time.Duration) error {
	if err := a.fw.stream(rows, flags, elapsed); err != nil {
		return err
	}
	return a.fw.flush()
}
