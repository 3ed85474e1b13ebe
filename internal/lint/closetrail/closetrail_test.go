package closetrail_test

import (
	"testing"

	"qppt/internal/lint/closetrail"
	"qppt/internal/lint/qlinttest"
)

func TestCloseTrail(t *testing.T) {
	qlinttest.Run(t, "testdata/src", closetrail.Analyzer)
}
