package spill

import (
	"strings"
	"testing"
)

func TestParseBytes(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"64k", 64 << 10},
		{"64K", 64 << 10},
		{"64kb", 64 << 10},
		{"64KiB", 64 << 10},
		{"256MiB", 256 << 20},
		{"256mb", 256 << 20},
		{"64mb", 64 << 20},
		{"64 MiB", 64 << 20}, // space-separated suffix
		{"64 mb", 64 << 20},
		{" 2 G ", 2 << 30},
		{"1.5g", 3 << 29},
		{"2T", 2 << 40},
		{"8 tib", 8 << 40},
	}
	for _, c := range good {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	bad := []struct {
		in      string
		errLike string
	}{
		{"", "empty"},
		{"x", "bad byte size"},
		{"12q", "bad byte size"},
		{"mib", "bad byte size"},
		{"-5", "negative"},
		{"-1.5GiB", "negative"},
		{"-0.5 mb", "negative"},
		{"8388608T", "out of range"}, // 2^63: one past int64
		{"1e30", "out of range"},
		{"9223372036854775807", "out of range"}, // rounds to 2^63 as a float64
		{"NaN", "out of range"},
		{"inf", "out of range"},
	}
	for _, c := range bad {
		_, err := ParseBytes(c.in)
		if err == nil {
			t.Errorf("ParseBytes(%q) did not fail", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.errLike) {
			t.Errorf("ParseBytes(%q) error %q, want mention of %q", c.in, err, c.errLike)
		}
	}
}
