// Package core carries one deliberate violation per qpptvet analyzer
// (and one clean counterpart each), so the smoke test can assert every
// analyzer fires end-to-end. Line positions matter only loosely — the
// smoke test matches on analyzer name, file, and message substrings.
package core

import "fixture.example/qppt/internal/spill"

// ---- closetrail ----

// LeakManager builds a spill manager and never closes it.
func LeakManager() {
	m, err := spill.New(1<<20, "/tmp/spill")
	if err != nil {
		return
	}
	m.Register("t")
}

// UseManager closes on every path.
func UseManager() error {
	m, err := spill.New(1<<20, "/tmp/spill")
	if err != nil {
		return err
	}
	defer m.Close()
	m.Register("t")
	return nil
}

// ---- unreached ----

// TestOnly is referenced only from core_test.go.
func TestOnly() int { return 1 }

// BenchOnly is referenced only from the benchmark module: that reaches it.
func BenchOnly() int { return 2 }
