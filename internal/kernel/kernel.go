// Package kernel hosts the branch-free, word-parallel (SWAR-on-uint64)
// batch primitives Frags (per-key fragment extraction) and RangeMask (a
// key-range predicate over a batch as a bitmask).
//
// The package is benchmark-only: no engine package imports it.
// benchmark/probes.go times its primitives and benchmark/main.go records
// Mode; once the benchmark drops those probes, the package goes.
//
// Dispatch contract: every exported entry point has two implementations —
// an optimized SWAR variant (swar.go, unrolled, bounds-check hoisted) and
// a plain-loop generic variant (generic.go) that is the oracle in tests.
// Which one runs is a process-global switch: the per-arch dispatch files
// (dispatch_*.go, selected by build tags) pick the default, and building
// with `-tags purego`, setting QPPT_KERNEL=off in the environment, or
// calling ForceGeneric routes everything through the generic oracle.
//
// Both variants are bit-identical by contract (enforced by differential
// tests) and allocation-free on every entry point. The package operates on
// plain slices only — no arena refs, no unsafe.
package kernel

import (
	"os"
	"sync/atomic"
)

var enabled atomic.Bool

func init() {
	on := defaultEnabled
	switch os.Getenv("QPPT_KERNEL") {
	case "off", "generic", "scalar", "0":
		on = false
	case "on", "swar", "1":
		on = true
	}
	enabled.Store(on)
}

// Mode names the active dispatch target ("swar", "swar-amd64", ...) or
// "generic" when the fallback oracle is forced; benchmark records carry it.
func Mode() string {
	if enabled.Load() {
		return dispatchMode
	}
	return "generic"
}

// ForceGeneric switches every entry point to the generic oracle and
// returns a func restoring the previous state. Used by the benchmark's
// generic probe leg and by tests.
func ForceGeneric() (restore func()) {
	prev := enabled.Swap(false)
	return func() { enabled.Store(prev) }
}

// MaskWords returns the number of uint64 bitmask words covering n rows.
func MaskWords(n int) int { return (n + 63) / 64 }

// Frags extracts the per-key fragment (keys[i]>>shift)&mask for a whole
// batch into dst, which must be at least len(keys) long: one unrolled,
// bounds-check hoisted sweep. Its only caller is benchmark/probes.go.
func Frags(dst, keys []uint64, shift uint, mask uint64) {
	if enabled.Load() {
		fragsSWAR(dst, keys, shift, mask)
		return
	}
	fragsGeneric(dst, keys, shift, mask)
}

// RangeMask ORs, into the little-endian bitmask words of mask, a set bit
// for every keys[i] with lo <= keys[i] <= hi. The compare is branch-free
// (unsigned wraparound trick: k-lo <= hi-lo). Callers clear mask before
// the first range of a predicate; successive calls accumulate a union of
// ranges. mask must hold MaskWords(len(keys)) words. Bits at positions
// >= len(keys) are never set. No engine path calls it: its only caller is
// benchmark/probes.go, which times it against the generic oracle.
func RangeMask(mask, keys []uint64, lo, hi uint64) {
	if hi < lo { // empty range matches nothing
		return
	}
	if enabled.Load() {
		rangeMaskSWAR(mask, keys, lo, hi)
		return
	}
	rangeMaskGeneric(mask, keys, lo, hi)
}
