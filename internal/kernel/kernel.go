// Package kernel hosts the branch-free, word-parallel (SWAR-on-uint64)
// batch primitives: Frags extracts key fragments for the level-synchronous
// batched descent of both tree kinds, and RangeMask evaluates a key-range
// predicate over a batch into a bitmask.
//
// Dispatch contract: every exported entry point has two implementations —
// an optimized SWAR variant (swar.go, unrolled, bounds-check hoisted) and
// a plain-loop generic variant (generic.go) that is the oracle in tests
// and the permanent fallback. Which one runs is a process-global switch:
//
//   - the per-arch dispatch files (dispatch_*.go, selected by build tags)
//     pick the default, so an arch-specific assembly variant can later
//     drop in behind the same seam without touching call sites;
//   - building with `-tags purego`, setting QPPT_KERNEL=off in the
//     environment, or calling ForceGeneric routes everything through the
//     generic oracle at runtime.
//
// Both variants are bit-identical by contract (enforced by differential
// tests and FuzzKernelVsScalar) and allocation-free on every entry point.
// The package deliberately operates on plain slices only — no arena refs,
// no unsafe.
package kernel

import (
	"os"
	"sync/atomic"
)

// MinBatch is the smallest batch for which the word-parallel kernels are
// worth their setup over the scalar per-key loop; callers gate batch-level
// strategy choices on Batched rather than re-deriving a threshold.
const MinBatch = 16

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

// Batched reports whether a batch of n keys should take the kernelized
// (level-synchronous / selection-vector) path rather than the scalar one.
func Batched(n int) bool { return n >= MinBatch && enabled.Load() }

// Mode names the active dispatch target ("swar", "swar-amd64", ...) or
// "generic" when the fallback oracle is forced; surfaced in engine stats.
func Mode() string {
	if enabled.Load() {
		return dispatchMode
	}
	return "generic"
}

// ForceGeneric switches every entry point to the generic oracle and
// returns a func restoring the previous state. Used by the scalar leg of
// ablations, the -nokernel CLI flag, and differential tests.
func ForceGeneric() (restore func()) {
	prev := enabled.Swap(false)
	return func() { enabled.Store(prev) }
}

// MaskWords returns the number of uint64 bitmask words covering n rows.
func MaskWords(n int) int { return (n + 63) / 64 }

// Frags extracts the per-key fragment (keys[i]>>shift)&mask for a whole
// batch into dst, which must be at least len(keys) long. This is the
// level-synchronous descent's fragment pass: one unrolled, bounds-check
// hoisted sweep per tree level instead of a shift+mask inside the per-key
// resolve loop.
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
