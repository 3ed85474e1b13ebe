package sql_test

import (
	"sync"
	"testing"

	"qppt/internal/sql"
	"qppt/internal/ssb"
)

var (
	fuzzCatOnce sync.Once
	fuzzPlanner *sql.Planner
)

// FuzzPlanSQL feeds arbitrary text through the SQL front end — lexer,
// parser and planner — against a tiny SSB catalog built once. Whatever the
// text, planning must not panic and must return exactly one of a statement
// or an error: a server plans every text a client sends, so a panic here
// ends the process. The seed corpus (testdata/fuzz/FuzzPlanSQL) holds the
// 13 SSB texts and the texts that once panicked the parser or planner.
func FuzzPlanSQL(f *testing.F) {
	fuzzCatOnce.Do(func() {
		fuzzPlanner = sql.NewPlanner(ssb.MustLoad(ssb.GenConfig{SF: 0.002, Seed: 1}).Cat)
	})
	f.Fuzz(func(t *testing.T, src string) {
		for _, useSJ := range []bool{true, false} {
			stmt, err := fuzzPlanner.PlanSQL(src, sql.Options{UseSelectJoin: useSJ})
			if (stmt == nil) == (err == nil) {
				t.Fatalf("PlanSQL(%q, selectjoin=%v) = %v, %v: want a statement or an error", src, useSJ, stmt, err)
			}
		}
	})
}
