package sql_test

import (
	"context"
	"slices"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// FuzzPlanSQL feeds arbitrary text through the SQL front end — lexer,
// parser and planner — against a small SSB catalog, runs every statement
// that plans on three Envs — one worker, two workers, and two workers under
// a one-byte memory budget, which spills every intermediate and thaws it
// for its consumer — and checks each answer against the column-at-a-time
// baseline (ssb.Dataset.RunColumnSQL), which reads the same text with the
// parser and the catalog's dictionaries alone.
// Whatever the text, planning must return exactly one of a statement or an
// error, a run must return rows or an error, and the baseline must answer
// or return an error, never panic: a server plans and runs every text a
// client sends, and a panic on a scheduler goroutine ends the process
// whatever the caller recovers. Whenever both the engine and the baseline
// answer, the answers must be the same attributes and the same multiset of
// rows. The seed corpus (testdata/fuzz/FuzzPlanSQL) holds the 13 SSB
// texts, texts that once panicked the parser, the planner or a run, and
// texts beyond SSB's shapes that the two engines must agree on.
func FuzzPlanSQL(f *testing.F) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.01, Seed: 1})
	planner := sql.NewPlanner(ds.Cat)
	cfgs := []core.EnvConfig{
		{Workers: 1},
		{Workers: 2},
		{Workers: 2, MemBudget: 1},
	}
	envs := make([]*core.Env, len(cfgs))
	for i, cfg := range cfgs {
		env, err := core.NewEnv(cfg)
		if err != nil {
			f.Fatal(err)
		}
		envs[i] = env
		f.Cleanup(func() {
			if err := env.Close(); err != nil {
				f.Errorf("env.Close (%+v): %v", cfg, err)
			}
		})
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, baseErr := ds.RunColumnSQL(src)
		if (want == nil) == (baseErr == nil) {
			t.Fatalf("RunColumnSQL(%q) = %v, %v: want a result or an error", src, want, baseErr)
		}
		stmt, err := planner.PlanSQL(src)
		if (stmt == nil) == (err == nil) {
			t.Fatalf("PlanSQL(%q) = %v, %v: want a statement or an error", src, stmt, err)
		}
		if stmt == nil {
			return
		}
		for i, env := range envs {
			rows, _, err := stmt.Run(context.Background(), env, core.Options{})
			if (rows == nil) == (err == nil) {
				t.Fatalf("%+v: Run(%q) = %v, %v: want rows or an error", cfgs[i], src, rows, err)
			}
			if rows == nil || want == nil {
				continue
			}
			got, exp := sorted(rows.Rows), sorted(want.Rows)
			if !slices.Equal(rows.Attrs, want.Attrs) || !slices.EqualFunc(got, exp, slices.Equal) {
				t.Fatalf("%+v: %q:\nengine   %v %d rows %v\nbaseline %v %d rows %v",
					cfgs[i], src, rows.Attrs, len(got), head(got), want.Attrs, len(exp), head(exp))
			}
		}
	})
}

// sorted returns a sorted copy of rows, so that answers compare as
// multisets whatever order ties come in.
func sorted(rows [][]uint64) [][]uint64 {
	out := slices.Clone(rows)
	slices.SortFunc(out, slices.Compare[[]uint64])
	return out
}

func head(rows [][]uint64) [][]uint64 { return rows[:min(len(rows), 5)] }
