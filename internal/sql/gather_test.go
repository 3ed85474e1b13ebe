package sql_test

import (
	"context"
	"slices"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// TestSSBLookupsEqualDrivingKeys: every dimension an SSB text joins has one
// row per key over a dense span, so each assist of its select-join is read
// by position, never looked up: the select-join's lookups are its main
// probe's, one per driving key its scan keeps. The answers are the column
// baseline's, at 1 and 2 workers, on the dataset qpptsql -sf 0.2 loads.
func TestSSBLookupsEqualDrivingKeys(t *testing.T) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.2, Seed: 42})
	planner := sql.NewPlanner(ds.Cat)
	for _, workers := range []int{1, 2} {
		env, err := core.NewEnv(core.EnvConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		for _, qid := range ssb.QueryIDs {
			text := ssb.SQLTexts[qid]
			stmt, err := planner.PlanSQL(text)
			if err != nil {
				t.Fatalf("Q%s: %v", qid, err)
			}
			sj, ok := stmt.Plan.Root.(*core.SelectJoin)
			if !ok {
				t.Fatalf("Q%s: root %s is not a star join", qid, stmt.Plan.Root.Label())
			}
			rows, stats, err := stmt.Run(context.Background(), env, core.Options{CollectStats: true})
			if err != nil {
				t.Fatalf("Q%s: %v", qid, err)
			}
			want, err := ds.RunColumnSQL(text)
			if err != nil {
				t.Fatalf("Q%s: baseline: %v", qid, err)
			}
			if len(want.Rows) == 0 || !slices.EqualFunc(rows.Rows, want.Rows, slices.Equal) {
				t.Errorf("Q%s, Workers %d: engine %d rows, baseline %d rows", qid, workers, len(rows.Rows), len(want.Rows))
			}
			if got, keys := stats.Ops[len(stats.Ops)-1].ProbeLookups, drivingKeys(t, sj); got != keys {
				t.Errorf("Q%s, Workers %d: %d lookups, want %d, one per driving key", qid, workers, got, keys)
			}
		}
	}
}

// drivingKeys counts the tuples of a select-join's driving input, a base
// index, that its key predicate and its predicates on input 0 keep.
func drivingKeys(t *testing.T, sj *core.SelectJoin) int {
	t.Helper()
	base, ok := sj.SelInput.(*core.Base)
	if !ok {
		t.Fatalf("%s: the driving input is %s, not a base index", sj.Label(), sj.SelInput.Label())
	}
	in, n := base.Table, 0
	visit := func(lf *core.Leaf) bool {
		lf.Vals.Scan(func(row []uint64) bool {
			for _, p := range sj.Preds {
				v := lf.Key
				if c := in.Col(p.Ref.Attr); c >= 0 {
					v = row[c]
				}
				if p.Ref.Input == 0 && !p.Pred.Has(v) {
					return true
				}
			}
			n++
			return true
		})
		return true
	}
	if sj.Pred == nil {
		in.Idx.Iterate(visit)
	}
	for _, r := range sj.Pred {
		in.Idx.Range(r.Lo, r.Hi, visit)
	}
	return n
}
