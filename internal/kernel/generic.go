package kernel

// The generic variants are the oracle: the simplest possible loop per
// primitive, kept deliberately boring so differential tests compare the
// optimized SWAR code against something obviously correct, and what runs
// under purego builds, QPPT_KERNEL=off and ForceGeneric.

func fragsGeneric(dst, keys []uint64, shift uint, mask uint64) {
	for i, k := range keys {
		dst[i] = (k >> shift) & mask
	}
}

func rangeMaskGeneric(mask, keys []uint64, lo, hi uint64) {
	for i, k := range keys {
		if k >= lo && k <= hi {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
}
