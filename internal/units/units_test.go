package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0s"},
		{1.5e-9, "1.5ns"},
		{2.5e-6, "2.5µs"},
		{3.25e-3, "3.25ms"},
		{42.5, "42.5s"},
		// Boundaries land in the coarser unit (the switch is exclusive below).
		{1e-6, "1µs"},
		{1e-3, "1ms"},
		{1, "1s"},
		// Negative durations keep their natural prefix via the abs() switch.
		{-2.5e-6, "-2.5µs"},
		{-42.5, "-42.5s"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestFormatBytes pins the 3-significant-digit clamp: before the fix,
// FormatBytes(1234567) printed the full float64 mantissa
// ("1.1773748397827148MiB"), leaking unbounded precision into reports.
func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1KiB"},
		{4 * MiB, "4MiB"},
		{2 * GiB, "2GiB"},
		// Non-round counts clamp to 3 significant digits.
		{1234567, "1.18MiB"},
		{1536, "1.5KiB"},
		{KiB + 1, "1KiB"},
		{5*GiB + 123*MiB, "5.12GiB"},
		// Exactly-1 boundaries: the first count in each prefix band.
		{KiB - 1, "1023B"},
		{MiB, "1MiB"},
		{GiB, "1GiB"},
		// Negative counts pick the prefix by magnitude, not by sign.
		{-512, "-512B"},
		{-4 * MiB, "-4MiB"},
		{-1234567, "-1.18MiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPow2Sizes(t *testing.T) {
	got := Pow2Sizes(1, 16)
	want := []Bytes{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("Pow2Sizes(1,16) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pow2Sizes(1,16) = %v, want %v", got, want)
		}
	}
}

// TestPow2SizesOverflowGuard pins the behaviour of the doubling loop at the
// top of the int64 range, where a naive s *= 2 would wrap negative and loop
// forever (or panic).
func TestPow2SizesOverflowGuard(t *testing.T) {
	const top = Bytes(1) << 62 // largest power of two representable in int64
	cases := []struct {
		name     string
		min, max Bytes
		want     []Bytes
	}{
		{"min at top power, max at MaxInt64", top, math.MaxInt64, []Bytes{top}},
		{"exact top power", top, top, []Bytes{top}},
		{"one below top power", top - 1, math.MaxInt64, []Bytes{top - 1, 2 * (top - 1)}},
		{"max one below a grid point", 1 << 61, top - 1, []Bytes{1 << 61}},
		{"min is MaxInt64", math.MaxInt64, math.MaxInt64, []Bytes{math.MaxInt64}},
		{"full range stops at top power", 1, math.MaxInt64, Pow2Sizes(1, top)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Pow2Sizes(c.min, c.max)
			if len(got) != len(c.want) {
				t.Fatalf("Pow2Sizes(%d,%d) = %v (len %d), want %v", c.min, c.max, got, len(got), c.want)
			}
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Fatalf("Pow2Sizes(%d,%d)[%d] = %d, want %d", c.min, c.max, i, got[i], c.want[i])
				}
			}
			for _, s := range got {
				if s < c.min || s > c.max {
					t.Fatalf("Pow2Sizes(%d,%d) contains out-of-range %d", c.min, c.max, s)
				}
			}
		})
	}
}

func TestPow2SizesPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for min > max")
		}
	}()
	Pow2Sizes(8, 4)
}

// Property: every returned size is a doubling of the previous, within range.
func TestPow2SizesProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		min := Bytes(a%1024) + 1
		max := min + Bytes(b)
		g := Pow2Sizes(min, max)
		if len(g) == 0 || g[0] != min {
			return false
		}
		for i := 1; i < len(g); i++ {
			if g[i] != 2*g[i-1] || g[i] > max {
				return false
			}
		}
		// The next doubling must exceed max.
		return 2*g[len(g)-1] > max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
