package kernel

// Optimized word-parallel variants. The shape is deliberately uniform:
// full-slice reslices (k := keys[i:i+8:i+8]) hoist the bounds checks out
// of the unrolled body, comparisons are rewritten as unsigned arithmetic
// so the compiler emits SETcc instead of branches, and per-iteration
// state lives in accumulator registers merged once at the end. Any
// future arch-specific assembly replaces these bodies behind the same
// names via a new dispatch_* file — the exported wrappers never change.

// b2u converts a bool to 0/1 without a branch (compiles to SETcc+MOVZX).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fragsSWAR(dst, keys []uint64, shift uint, mask uint64) {
	n := len(keys)
	if len(dst) < n {
		panic("kernel: Frags dst shorter than keys")
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		k := keys[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = (k[0] >> shift) & mask
		d[1] = (k[1] >> shift) & mask
		d[2] = (k[2] >> shift) & mask
		d[3] = (k[3] >> shift) & mask
		d[4] = (k[4] >> shift) & mask
		d[5] = (k[5] >> shift) & mask
		d[6] = (k[6] >> shift) & mask
		d[7] = (k[7] >> shift) & mask
	}
	for ; i < n; i++ {
		dst[i] = (keys[i] >> shift) & mask
	}
}

func rangeMaskSWAR(mask, keys []uint64, lo, hi uint64) {
	span := hi - lo // callers guarantee lo <= hi
	n := len(keys)
	for base, w := 0, 0; base < n; base, w = base+64, w+1 {
		end := base + 64
		if end > n {
			end = n
		}
		k := keys[base:end:end]
		var word uint64
		j := 0
		for ; j+4 <= len(k); j += 4 {
			// Unsigned wraparound in-range test: k-lo <= hi-lo holds
			// exactly when lo <= k <= hi. Each compare is branch-free.
			word |= b2u(k[j]-lo <= span) << uint(j)
			word |= b2u(k[j+1]-lo <= span) << uint(j+1)
			word |= b2u(k[j+2]-lo <= span) << uint(j+2)
			word |= b2u(k[j+3]-lo <= span) << uint(j+3)
		}
		for ; j < len(k); j++ {
			word |= b2u(k[j]-lo <= span) << uint(j)
		}
		mask[w] |= word
	}
}
