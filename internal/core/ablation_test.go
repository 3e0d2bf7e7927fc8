package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/nas"
	"repro/internal/units"
)

// The §2.3 ablations: LU-MZ.C@16's compute projection onto POWER6 beside
// (a) a dense NNLS fit in place of the GA surrogate search and (b) the
// search under the base-machine group weights, without step 4's adjustment
// to the target. Both variants run over the search space the projection
// itself builds (surrogateSpaceAt), so they differ from it only in the step
// they replace.

// measuredLUCompute is LU-MZ.C@16's measured per-task compute on POWER6.
func measuredLUCompute(b *testing.B) units.Seconds {
	b.Helper()
	res, err := nas.Run(nas.Config{Bench: nas.LU, Class: nas.ClassC, Ranks: 16}, arch.MustGet(arch.Power6))
	if err != nil {
		b.Fatal(err)
	}
	return res.Profile.MeanCompute()
}

// computeErr is the |%| error of a compute projection vs the measured
// per-task compute time.
func computeErr(cp *ComputeProjection, measured units.Seconds) float64 {
	return math.Abs(100 * (cp.TargetTime - measured) / measured)
}

func BenchmarkAblationGAvsNNLS(b *testing.B) {
	p, _ := sharedPipes(b)
	app := sharedLU(b)
	measured := measuredLUCompute(b)
	var ga, dense *ComputeProjection
	var err error
	for i := 0; i < b.N; i++ {
		if ga, err = p.ProjectCompute(app, 16); err != nil {
			b.Fatal(err)
		}
		if dense, err = nnlsProjection(p, app, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(computeErr(ga, measured), "ga|err|%")
	b.ReportMetric(computeErr(dense, measured), "nnls|err|%")
	b.ReportMetric(float64(len(ga.Surrogate)), "ga_members")
	b.ReportMetric(float64(len(dense.Surrogate)), "nnls_members")
}

func BenchmarkAblationRankAdjust(b *testing.B) {
	p, _ := sharedPipes(b)
	app := sharedLU(b)
	measured := measuredLUCompute(b)
	var with, without *ComputeProjection
	var err error
	for i := 0; i < b.N; i++ {
		if with, err = p.ProjectCompute(app, 16); err != nil {
			b.Fatal(err)
		}
		s, err := p.surrogateSpaceAt(app, 16)
		if err != nil {
			b.Fatal(err)
		}
		if without, err = p.searchSurrogate(context.Background(), p.Obs, app, 16, s, groupContributions(&s.cp.ST)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(computeErr(with, measured), "adjusted|err|%")
	b.ReportMetric(computeErr(without, measured), "unadjusted|err|%")
}

// nnlsProjection is the GA ablation baseline: a dense non-negative
// least-squares fit of the app's weighted metric vector over the whole
// pool, with no sparsity and no member-similarity pressure. Its surrogate
// is in pool order.
func nnlsProjection(p *Pipeline, app *AppModel, ci int) (*ComputeProjection, error) {
	s, err := p.surrogateSpaceAt(app, ci)
	if err != nil {
		return nil, err
	}
	groupW := p.groupWeights(s)
	weights := metricWeights(groupW)
	// Row-weighted design matrix: rows are metric dimensions, columns
	// benchmarks.
	rows := len(s.appVec)
	A := make([][]float64, rows)
	b := make([]float64, rows)
	for j := 0; j < rows; j++ {
		w := math.Sqrt(weights[j])
		A[j] = make([]float64, len(s.pool))
		for k := range s.pool {
			A[j][k] = w * s.pool[k][j]
		}
		b[j] = w * s.appVec[j]
	}
	x, err := nnls(A, b, 20000)
	if err != nil {
		return nil, err
	}
	var wsum float64
	for _, v := range x {
		wsum += v
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("core: NNLS found no support")
	}
	var baseMix, targetMix float64
	var terms []SurrogateTerm
	for k, v := range x {
		if v <= 1e-9 {
			continue
		}
		f := v / wsum
		baseMix += f * p.SpecBase[s.names[k]].ST.Runtime
		targetMix += f * p.SpecTarget[s.names[k]].ST.Runtime
		terms = append(terms, SurrogateTerm{Bench: s.names[k], Weight: f})
	}
	baseTime := app.baseComputeAt(ci)
	return &ComputeProjection{
		Surrogate:    terms,
		Fitness:      residual(A, x, b),
		CharCount:    ci,
		BaseTime:     baseTime,
		TargetTime:   baseTime * targetMix / baseMix,
		GroupWeights: groupW,
		Ranking:      rankingOf(groupW),
	}, nil
}

// nnls solves min ‖A·x − b‖₂ subject to x ≥ 0 by projected gradient descent
// with an adaptive step. It is deliberately simple: the ablation compares
// the GA surrogate search against this dense non-negative fit.
func nnls(A [][]float64, b []float64, iters int) ([]float64, error) {
	rows := len(A)
	if rows == 0 || len(b) != rows {
		return nil, errors.New("nnls: dimension mismatch")
	}
	cols := len(A[0])
	x := make([]float64, cols)
	// Lipschitz estimate: ‖A‖_F² bounds the largest eigenvalue of AᵀA.
	var frob float64
	for r := range A {
		if len(A[r]) != cols {
			return nil, errors.New("nnls: ragged matrix")
		}
		for c := range A[r] {
			frob += A[r][c] * A[r][c]
		}
	}
	if frob == 0 {
		return x, nil
	}
	step := 1 / frob
	res := make([]float64, rows)
	grad := make([]float64, cols)
	for it := 0; it < iters; it++ {
		for r := 0; r < rows; r++ {
			res[r] = -b[r]
			for c := 0; c < cols; c++ {
				res[r] += A[r][c] * x[c]
			}
		}
		for c := 0; c < cols; c++ {
			grad[c] = 0
			for r := 0; r < rows; r++ {
				grad[c] += A[r][c] * res[r]
			}
		}
		var moved float64
		for c := 0; c < cols; c++ {
			nx := x[c] - step*grad[c]
			if nx < 0 {
				nx = 0
			}
			moved += math.Abs(nx - x[c])
			x[c] = nx
		}
		if moved < 1e-12 {
			break
		}
	}
	return x, nil
}

// residual returns ‖A·x − b‖₂.
func residual(A [][]float64, x, b []float64) float64 {
	var s float64
	for r := range A {
		d := -b[r]
		for c := range x {
			d += A[r][c] * x[c]
		}
		s += d * d
	}
	return math.Sqrt(s)
}

func TestNNLSNonNegative(t *testing.T) {
	// The unconstrained solution would need a negative coefficient.
	A := [][]float64{{1, 1}, {1, 2}, {1, 3}}
	b := []float64{3, 2, 1}
	x, err := nnls(A, b, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v < 0 {
			t.Fatalf("nnls produced negative coefficient: %v", x)
		}
	}
	// The constrained optimum must be no worse than the zero vector.
	if zero := residual(A, make([]float64, len(x)), b); residual(A, x, b) > zero {
		t.Errorf("nnls residual %v worse than trivial %v", residual(A, x, b), zero)
	}
}

func TestNNLSRecoversNonNegativeTruth(t *testing.T) {
	A := [][]float64{{1, 0, 1}, {0, 1, 1}, {1, 1, 0}, {2, 0, 1}}
	truth := []float64{0.5, 1.5, 2}
	b := make([]float64, len(A))
	for r := range A {
		for c := range truth {
			b[r] += A[r][c] * truth[c]
		}
	}
	x, err := nnls(A, b, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for c := range truth {
		if math.Abs(x[c]-truth[c]) > 1e-3 {
			t.Errorf("nnls = %v, want %v", x, truth)
			break
		}
	}
}
