package spill

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseBytes parses a human byte-size string for the -membudget flags: a
// plain number is bytes, and the suffixes K/M/G/T — optionally followed by
// "B" or "iB", in any case, with optional whitespace before the suffix —
// scale by powers of 1024. Examples: "268435456", "256MiB", "64mb",
// "64 MiB", "1.5G". Negative sizes are rejected with a dedicated error, as
// are NaN, infinities and sizes that do not fit in an int64.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("spill: empty byte size")
	}
	shift := uint(0)
	for _, unit := range []struct {
		sfx string
		sh  uint
	}{
		// Longest suffixes first so "mib" is never read as "b" after "mi".
		{"kib", 10}, {"mib", 20}, {"gib", 30}, {"tib", 40},
		{"kb", 10}, {"mb", 20}, {"gb", 30}, {"tb", 40},
		{"k", 10}, {"m", 20}, {"g", 30}, {"t", 40},
	} {
		if strings.HasSuffix(t, unit.sfx) {
			t, shift = strings.TrimSuffix(t, unit.sfx), unit.sh
			break
		}
	}
	t = strings.TrimSpace(t) // allow "64 MiB"
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("spill: bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("spill: negative byte size %q", s)
	}
	scaled := v * float64(int64(1)<<shift)
	// float64(math.MaxInt64) rounds up to 2^63, the first value whose
	// conversion overflows; NaN compares false against everything.
	if math.IsNaN(scaled) || scaled >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("spill: byte size %q out of range", s)
	}
	return int64(scaled), nil
}

// FormatBytes renders n with the largest power-of-1024 unit that keeps
// the value readable, for statistics output.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
