package unreached_test

import (
	"testing"

	"qppt/internal/lint/qlinttest"
	"qppt/internal/lint/unreached"
)

func TestUnreached(t *testing.T) {
	qlinttest.Run(t, "testdata/src", unreached.Analyzer)
}
