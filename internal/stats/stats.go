// Package stats supplies the numerical machinery SWAPP's models lean on:
// descriptive statistics, linear and power-law least squares (for the CCSM
// compute-scaling fit), straight-line extrapolation to a zero crossing (for
// the ACSM cache-footprint model), log–log interpolation (for IMB parameter
// tables), the weighted distance behind the surrogate-similarity metric,
// and a non-negative least-squares solver used as the GA ablation baseline.
//
// Everything is stdlib-only, deterministic, and sized for the tiny systems
// SWAPP solves (dozens of unknowns at most), so clarity beats asymptotics.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (0 for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Max returns the largest element of a non-empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// LinearFit fits y ≈ a + b·x by ordinary least squares and returns (a, b).
// It requires at least two points with distinct x.
func LinearFit(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: LinearFit length mismatch")
	}
	if len(xs) < 2 {
		return 0, 0, errors.New("stats: LinearFit needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: LinearFit has degenerate x values")
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// PowerFit fits y ≈ k·x^p via least squares in log–log space and returns
// (k, p). All xs and ys must be strictly positive. This is the CCSM fit:
// compute time versus core count under strong scaling, where p ≈ −1 means
// perfect scaling.
func PowerFit(xs, ys []float64) (k, p float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: PowerFit length mismatch")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, errors.New("stats: PowerFit requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	a, b, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, err
	}
	return math.Exp(a), b, nil
}

// ZeroCrossing fits a line to (xs, ys) and returns the x at which the fitted
// line reaches zero. This backs the ACSM extrapolation: the paper finds the
// core count Ch at which a G5 metric (for example data-from-L3 per
// instruction) extrapolates to zero. An error is returned when the fit is
// degenerate or the line never descends (slope ≥ 0).
func ZeroCrossing(xs, ys []float64) (float64, error) {
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		return 0, err
	}
	if b >= 0 {
		return 0, errors.New("stats: ZeroCrossing needs a descending trend")
	}
	return -a / b, nil
}

// LogLogInterp interpolates the sample pairs (xs, ys) at x in log–log space,
// clamping outside the sample range to the nearest endpoint value. xs must
// be sorted ascending and strictly positive, ys strictly positive. This is
// how IMB timings on a power-of-two message grid are evaluated at the exact
// message sizes an application profile records.
func LogLogInterp(xs, ys []float64, x float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic("stats: LogLogInterp needs matching non-empty samples")
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[len(xs)-1] {
		return ys[len(ys)-1]
	}
	i := sort.SearchFloat64s(xs, x)
	if xs[i] == x {
		return ys[i]
	}
	x0, x1 := math.Log(xs[i-1]), math.Log(xs[i])
	y0, y1 := math.Log(ys[i-1]), math.Log(ys[i])
	f := (math.Log(x) - x0) / (x1 - x0)
	return math.Exp(y0 + f*(y1-y0))
}

// WeightedDistance returns sqrt(Σ w_i (a_i − b_i)²): the rank-weighted
// similarity metric SWAPP uses to compare an application's metric vector
// against a candidate surrogate's.
func WeightedDistance(a, b, w []float64) float64 {
	if len(a) != len(b) || len(a) != len(w) {
		panic("stats: WeightedDistance length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += w[i] * d * d
	}
	return math.Sqrt(s)
}
