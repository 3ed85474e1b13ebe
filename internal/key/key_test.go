package key

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComposerValidation(t *testing.T) {
	if _, err := NewComposer(); err == nil {
		t.Error("empty composer accepted")
	}
	if _, err := NewComposer(0); err == nil {
		t.Error("zero-width field accepted")
	}
	if _, err := NewComposer(65); err == nil {
		t.Error("65-bit field accepted")
	}
	if _, err := NewComposer(32, 33); err == nil {
		t.Error("total width 65 accepted")
	}
	if _, err := NewComposer(32, 32); err != nil {
		t.Errorf("total width 64 rejected: %v", err)
	}
}

func TestComposerRoundTrip(t *testing.T) {
	c := MustComposer(16, 8, 24)
	f := func(a uint16, b uint8, d uint32) bool {
		d24 := uint64(d) & 0xFFFFFF
		k := c.Compose(uint64(a), uint64(b), d24)
		got := c.Split(k, nil)
		return got[0] == uint64(a) && got[1] == uint64(b) && got[2] == d24
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComposerLexOrder(t *testing.T) {
	// Composed keys must sort lexicographically by field order.
	c := MustComposer(16, 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a1, b1 := uint64(rng.Intn(1<<16)), uint64(rng.Intn(1<<16))
		a2, b2 := uint64(rng.Intn(1<<16)), uint64(rng.Intn(1<<16))
		k1, k2 := c.Compose(a1, b1), c.Compose(a2, b2)
		lexLess := a1 < a2 || (a1 == a2 && b1 < b2)
		if lexLess != (k1 < k2) {
			t.Fatalf("lex order mismatch: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
		}
	}
}

func TestComposerField(t *testing.T) {
	c := MustComposer(8, 8, 8)
	k := c.Compose(1, 2, 3)
	for i, want := range []uint64{1, 2, 3} {
		if got := c.Field(k, i); got != want {
			t.Errorf("Field(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestComposerMasksOversizedValues(t *testing.T) {
	c := MustComposer(4, 4)
	if got := c.Compose(0xFF, 0x1); got != c.Compose(0xF, 0x1) {
		t.Errorf("oversized field not masked: %#x", got)
	}
}

func TestComposePanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compose with wrong arity did not panic")
		}
	}()
	MustComposer(8, 8).Compose(1)
}
