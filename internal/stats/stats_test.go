package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !approx(Mean(xs), 5, 1e-12) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !approx(StdDev(xs), 2, 1e-12) {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/short-input conventions broken")
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{-3, 1, 2}); got != 2 {
		t.Errorf("Max = %v, want 2", got)
	}
	if got := Max([]float64{-3}); got != -3 {
		t.Errorf("Max of one element = %v, want -3", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(a, 3, 1e-9) || !approx(b, 2, 1e-9) {
		t.Errorf("LinearFit = (%v,%v), want (3,2)", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must fail")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x must fail")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
}

// Property: LinearFit recovers any non-degenerate line exactly.
func TestLinearFitRecoversLine(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8)/4, float64(b8)/4
		xs := []float64{1, 3, 5, 11}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		ga, gb, err := LinearFit(xs, ys)
		return err == nil && approx(ga, a, 1e-8) && approx(gb, b, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerFit(t *testing.T) {
	// y = 10 x^-0.9 — a realistic strong-scaling curve.
	xs := []float64{16, 32, 64, 128}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 * math.Pow(x, -0.9)
	}
	k, p, err := PowerFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(k, 10, 1e-6) || !approx(p, -0.9, 1e-9) {
		t.Errorf("PowerFit = (%v,%v)", k, p)
	}
}

func TestPowerFitRejectsNonPositive(t *testing.T) {
	if _, _, err := PowerFit([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("zero y must fail")
	}
	if _, _, err := PowerFit([]float64{-1, 2}, []float64{1, 1}); err == nil {
		t.Error("negative x must fail")
	}
}

func TestZeroCrossing(t *testing.T) {
	// y = 8 - 2x crosses zero at x=4.
	x, err := ZeroCrossing([]float64{0, 1, 2}, []float64{8, 6, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x, 4, 1e-9) {
		t.Errorf("ZeroCrossing = %v, want 4", x)
	}
	if _, err := ZeroCrossing([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("ascending trend must fail")
	}
}

func TestLogLogInterp(t *testing.T) {
	xs := []float64{1, 4, 16}
	ys := []float64{10, 20, 40} // doubling per 4x: y = 10·x^0.5
	if got := LogLogInterp(xs, ys, 2); !approx(got, 10*math.Sqrt2, 1e-9) {
		t.Errorf("interp(2) = %v", got)
	}
	if got := LogLogInterp(xs, ys, 4); got != 20 {
		t.Errorf("exact grid point = %v", got)
	}
	if got := LogLogInterp(xs, ys, 0.5); got != 10 {
		t.Errorf("below-range clamp = %v", got)
	}
	if got := LogLogInterp(xs, ys, 99); got != 40 {
		t.Errorf("above-range clamp = %v", got)
	}
}

// Property: interpolation stays within the bracketing sample values for a
// monotone table.
func TestLogLogInterpBounded(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := []float64{3, 5, 9, 17, 33, 65}
	f := func(q uint16) bool {
		x := 1 + float64(q%320)/10
		v := LogLogInterp(xs, ys, x)
		return v >= ys[0] && v <= ys[len(ys)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedDistance(t *testing.T) {
	d := WeightedDistance([]float64{1, 0}, []float64{0, 0}, []float64{4, 9})
	if !approx(d, 2, 1e-12) {
		t.Errorf("WeightedDistance = %v", d)
	}
	// Zero weight kills a coordinate entirely.
	d = WeightedDistance([]float64{1, 100}, []float64{0, 0}, []float64{1, 0})
	if !approx(d, 1, 1e-12) {
		t.Errorf("zero-weight coordinate leaked: %v", d)
	}
}
