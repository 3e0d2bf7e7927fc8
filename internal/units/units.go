// Package units provides small shared helpers for formatting and
// manipulating the quantities that flow through the simulator: simulated
// time (seconds as float64), byte counts, and the power-of-two message-size
// grids that the IMB-style benchmarks sweep.
package units

import (
	"fmt"
	"math"
)

// Seconds is simulated wall-clock time. All simulator-internal math uses
// float64 seconds; conversion to time.Duration happens only at API edges.
type Seconds = float64

// Bytes is a message or working-set size in bytes.
type Bytes = int64

// Common byte multiples.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// FormatSeconds renders a simulated duration with an SI prefix suited to its
// magnitude (ns/µs/ms/s), keeping three significant digits.
func FormatSeconds(s Seconds) string {
	abs := math.Abs(s)
	switch {
	case s == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.3gns", s*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.3gµs", s*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3gms", s*1e3)
	default:
		return fmt.Sprintf("%.4gs", s)
	}
}

// FormatBytes renders a byte count with a binary prefix (B/KiB/MiB/GiB),
// keeping three significant digits like FormatSeconds. The prefix is chosen
// by magnitude, so negative counts format symmetrically to positive ones.
func FormatBytes(b Bytes) string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < KiB:
		return fmt.Sprintf("%dB", b)
	case abs < MiB:
		return fmt.Sprintf("%.3gKiB", float64(b)/float64(KiB))
	case abs < GiB:
		return fmt.Sprintf("%.3gMiB", float64(b)/float64(MiB))
	default:
		return fmt.Sprintf("%.3gGiB", float64(b)/float64(GiB))
	}
}

// Pow2Sizes returns the ascending power-of-two size grid {min, 2min, …, max}
// (inclusive on both ends when max is itself on the grid). It is the sweep
// used by the IMB-style benchmarks. min must be ≥ 1 and ≤ max.
func Pow2Sizes(min, max Bytes) []Bytes {
	if min < 1 || min > max {
		panic(fmt.Sprintf("units: bad Pow2Sizes range [%d,%d]", min, max))
	}
	var out []Bytes
	for s := min; s <= max; s *= 2 {
		out = append(out, s)
		if s > max/2 { // avoid overflow on the doubling
			break
		}
	}
	return out
}
