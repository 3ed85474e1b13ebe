package sql_test

import (
	"context"
	"testing"

	"qppt/internal/catalog"
	"qppt/internal/core"
	"qppt/internal/sql"
)

// TestProbeWiderThanIndex: a select-join probes the dimension's index with
// the fact's foreign keys, and a probe key wider than that index (a KISS
// index of 32-bit keys, or a prefix tree 35 bits wide) is a miss, not a
// panic. The fact f holds fk 1..8 with x = 10·fk; each dimension d holds
// one key the probe reaches and one beyond the probe index's key width.
func TestProbeWiderThanIndex(t *testing.T) {
	const text = "select sum(x) as s from f, d where fk = dk and y = 1;"
	cases := []struct {
		name string
		fk0  uint64    // the first fact row's foreign key
		dk   [2]uint64 // the dimension's keys
		want uint64
	}{
		{"kisstree", 1, [2]uint64{1, 1 << 33}, 10},
		{"prefixtree", 1 << 34, [2]uint64{2, 1 << 40}, 20},
	}
	env, err := core.NewEnv(core.EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fk, x := make([]uint64, 8), make([]uint64, 8)
			for i := range fk {
				fk[i], x[i] = uint64(i+1), uint64(10*(i+1))
			}
			fk[0] = c.fk0
			cat := catalog.New()
			if _, err := cat.Load("f", []catalog.ColumnData{{Name: "fk", Ints: fk}, {Name: "x", Ints: x}}); err != nil {
				t.Fatal(err)
			}
			if _, err := cat.Load("d", []catalog.ColumnData{{Name: "dk", Ints: c.dk[:]}, {Name: "y", Ints: []uint64{1, 1}}}); err != nil {
				t.Fatal(err)
			}
			stmt, err := sql.NewPlanner(cat).PlanSQL(text)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, err := stmt.Run(context.Background(), env, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows.Rows) != 1 || rows.Rows[0][0] != c.want {
				t.Fatalf("%s = %v, want [[%d]]", text, rows.Rows, c.want)
			}
		})
	}
}
