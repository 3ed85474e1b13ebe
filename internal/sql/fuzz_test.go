package sql_test

import (
	"context"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// FuzzPlanSQL feeds arbitrary text through the SQL front end — lexer,
// parser and planner — against a tiny SSB catalog, and runs every
// statement that plans once on an Env of two workers. Whatever the text,
// planning must return exactly one of a statement or an error, and a run
// must return rows or an error: a server plans and runs every text a
// client sends, and a panic on a scheduler goroutine ends the process
// whatever the caller recovers. The seed corpus (testdata/fuzz/FuzzPlanSQL)
// holds the 13 SSB texts and the texts that once panicked the parser, the
// planner or a run.
func FuzzPlanSQL(f *testing.F) {
	planner := sql.NewPlanner(ssb.MustLoad(ssb.GenConfig{SF: 0.002, Seed: 1}).Cat)
	env, err := core.NewEnv(core.EnvConfig{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := env.Close(); err != nil {
			f.Errorf("env.Close: %v", err)
		}
	})
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := planner.PlanSQL(src)
		if (stmt == nil) == (err == nil) {
			t.Fatalf("PlanSQL(%q) = %v, %v: want a statement or an error", src, stmt, err)
		}
		if stmt == nil {
			return
		}
		rows, _, err := stmt.Run(context.Background(), env, core.Options{})
		if (rows == nil) == (err == nil) {
			t.Fatalf("Run(%q) = %v, %v: want rows or an error", src, rows, err)
		}
	})
}
