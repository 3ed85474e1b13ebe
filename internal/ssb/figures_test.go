package ssb

import (
	"context"
	"reflect"
	"testing"

	"qppt/internal/core"
)

// TestFigurePlansMatchPlanner: each hand-built figures.go plan returns the
// planner's answer for the same SSB text, serially and on three workers.
func TestFigurePlansMatchPlanner(t *testing.T) {
	ds := testDataset(t)
	for _, fig := range figureCases(ds) {
		want, _, err := sqlCase(t, ds, "Q"+fig.qid, fig.qid, SQLTexts[fig.qid]).
			run(context.Background(), newTestEnv(t, core.EnvConfig{}), core.Options{})
		if err != nil {
			t.Fatalf("Q%s: %v", fig.qid, err)
		}
		if len(want) == 0 {
			t.Fatalf("Q%s is empty at this scale factor: the comparison proves nothing", fig.qid)
		}
		for _, workers := range []int{1, 3} {
			got, _, err := fig.run(context.Background(), newTestEnv(t, core.EnvConfig{Workers: workers}), core.Options{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fig.name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: %d rows %v, planner's Q%s %d rows %v",
					fig.name, workers, len(got), head(got), fig.qid, len(want), head(want))
			}
		}
	}
}
