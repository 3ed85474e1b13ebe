package kernel

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// Differential harness: every primitive's SWAR variant must be
// bit-identical to the generic oracle on the same input. Cases sweep the
// shapes the pipeline produces: empty, single, unroll-boundary lengths,
// duplicates, full-width 64-bit keys.

func testKeys(n int, seed int64, wide bool) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		if wide {
			keys[i] = rng.Uint64()
		} else {
			keys[i] = uint64(rng.Intn(1 << 20))
		}
	}
	return keys
}

// popcountWords counts the set bits of a mask.
func popcountWords(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

var lengths = []int{0, 1, 3, 7, 8, 9, 15, 16, 63, 64, 65, 100, 511, 512}

func TestFragsMatchesOracle(t *testing.T) {
	for _, n := range lengths {
		for _, wide := range []bool{false, true} {
			keys := testKeys(n, int64(n)*2+1, wide)
			for _, cfg := range []struct {
				shift uint
				mask  uint64
			}{{0, 63}, {6, 1<<26 - 1}, {60, 15}, {0, ^uint64(0)}, {32, 1<<16 - 1}} {
				got := make([]uint64, n)
				want := make([]uint64, n)
				fragsSWAR(got, keys, cfg.shift, cfg.mask)
				fragsGeneric(want, keys, cfg.shift, cfg.mask)
				if !slices.Equal(got, want) {
					t.Fatalf("Frags n=%d wide=%v shift=%d mask=%#x: swar != generic", n, wide, cfg.shift, cfg.mask)
				}
			}
		}
	}
}

// TestRangeMaskAndSelMatchOracle checks the SWAR range mask against the
// generic oracle, and the selection it encodes — its set bits — against
// the keys that fall in the range.
func TestRangeMaskAndSelMatchOracle(t *testing.T) {
	for _, n := range lengths {
		for _, wide := range []bool{false, true} {
			keys := testKeys(n, int64(n)*3+7, wide)
			ranges := [][2]uint64{
				{0, ^uint64(0)},          // all-in
				{1, 0},                   // inverted: matches nothing (wrapper rejects)
				{1 << 19, 1 << 20},       // partial
				{^uint64(0), ^uint64(0)}, // all-miss for narrow keys
			}
			if n > 0 {
				ranges = append(ranges, [2]uint64{keys[0], keys[0]}) // point range incl. duplicates
			}
			for _, r := range ranges {
				words := MaskWords(n)
				got := make([]uint64, words)
				want := make([]uint64, words)
				if r[0] <= r[1] { // wrapper-level guard under test separately
					rangeMaskSWAR(got, keys, r[0], r[1])
					rangeMaskGeneric(want, keys, r[0], r[1])
				}
				if !slices.Equal(got, want) {
					t.Fatalf("RangeMask n=%d wide=%v range=%v: swar != generic", n, wide, r)
				}
				inRange := 0
				for _, k := range keys {
					if r[0] <= r[1] && k >= r[0] && k <= r[1] {
						inRange++
					}
				}
				if popcountWords(got) != inRange {
					t.Fatalf("RangeMask n=%d range=%v: %d bits set, %d keys in range", n, r, popcountWords(got), inRange)
				}
			}
		}
	}
}

func TestRangeMaskInvertedRangeIsEmpty(t *testing.T) {
	keys := testKeys(64, 5, false)
	mask := make([]uint64, MaskWords(len(keys)))
	RangeMask(mask, keys, 10, 5)
	if popcountWords(mask) != 0 {
		t.Fatalf("inverted range set %d bits, want 0", popcountWords(mask))
	}
}

func TestForceGenericRestores(t *testing.T) {
	wasEnabled := enabled.Load()
	restore := ForceGeneric()
	if enabled.Load() {
		t.Fatal("ForceGeneric left kernels enabled")
	}
	if Mode() != "generic" {
		t.Fatalf("Mode() = %q under ForceGeneric, want generic", Mode())
	}
	restore()
	if enabled.Load() != wasEnabled {
		t.Fatal("restore did not reinstate prior dispatch state")
	}
}

// Every kernel entry point must be allocation-free: the benchmark times
// them per batch.
func TestKernelEntryPointsAllocationFree(t *testing.T) {
	keys := testKeys(512, 99, false)
	dst := make([]uint64, len(keys))
	mask := make([]uint64, MaskWords(len(keys)))
	cases := []struct {
		name string
		fn   func()
	}{
		{"Frags", func() { Frags(dst, keys, 6, 63) }},
		{"RangeMask", func() { RangeMask(mask, keys, 100, 1<<19) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(20, tc.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}
