package shapes

import "testing"

// A test's reference reaches nothing.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 3 {
		t.Fatal("TestOnly")
	}
}
