package core

import (
	"math"

	"repro/internal/stats"
)

// EvalKernel is the GA surrogate search's objective, compiled once per
// search into flat structure-of-arrays matrices. The fitness closure it
// replaces renormalised the pool rows' contribution per genome and
// recomputed each member's weighted distance to the app on every call —
// ~10⁴ times per ensemble member. The kernel hoists everything that does
// not depend on the genome:
//
//   - pool: the normalised benchmark character vectors, flattened row-major
//     into one contiguous []float64 (row k is benchmark k, stride = metric
//     count) so the per-genome pass is blocked dense arithmetic with no
//     pointer chasing;
//   - memberDist: each benchmark's weighted distance to the app vector,
//     precomputed with the exact stats.WeightedDistance accumulation the
//     closure used, so the member-similarity term is a dot product;
//   - app, weights: the normalised app vector and expanded metric weights.
//
// The per-genome objective is then: one pass over the genome for the
// weight sum, one blocked accumulation of the weighted pool mix into a
// caller-owned scratch row, and one streaming weighted distance of that
// mix to the app. Every floating-point accumulation keeps the original
// evaluation order — k ascending outer, j ascending inner, single
// accumulator for the distance — so projections are byte-identical to the
// pre-kernel path at fixed seeds (pinned by TestEvalKernelMatchesReference).
//
// The kernel is immutable after construction and safe to share across
// concurrent ensemble members; only the scratch row is per-caller.
type EvalKernel struct {
	metrics int       // metric dimensions per row (n)
	pool    []float64 // benchmarks×metrics, row-major, normalised
	app     []float64 // metrics
	weights []float64 // metrics

	// memberDist[k] = WeightedDistance(pool row k, app, weights).
	memberDist []float64

	memberPenalty float64
}

// NewEvalKernel compiles the normalised pool, app vector and metric
// weights into an evaluation kernel. The rows of pool must all have
// len(app) entries.
func NewEvalKernel(pool [][]float64, app, weights []float64, memberPenalty float64) *EvalKernel {
	n := len(app)
	e := &EvalKernel{
		metrics:       n,
		pool:          make([]float64, len(pool)*n),
		app:           append([]float64(nil), app...),
		weights:       append([]float64(nil), weights...),
		memberDist:    make([]float64, len(pool)),
		memberPenalty: memberPenalty,
	}
	for k, row := range pool {
		copy(e.pool[k*n:(k+1)*n], row)
		e.memberDist[k] = stats.WeightedDistance(row, app, weights)
	}
	return e
}

// NewScratch returns a combo row sized for Objective. Each concurrent
// caller needs its own; it carries no state between calls.
func (e *EvalKernel) NewScratch() []float64 { return make([]float64, e.metrics) }

// Objective scores one genome. combo must come from NewScratch (or be any
// []float64 of the kernel's metric count); it is overwritten. The result
// is bitwise-equal to the original closure-based fitness for the same
// genome.
func (e *EvalKernel) Objective(genome, combo []float64) float64 {
	var wsum float64
	for _, w := range genome {
		wsum += w
	}
	if wsum <= 0 {
		return math.Inf(1)
	}
	combo = combo[:e.metrics]
	for j := range combo {
		combo[j] = 0
	}
	var member float64
	for k, w := range genome {
		if w == 0 {
			continue
		}
		f := w / wsum
		row := e.pool[k*e.metrics : (k+1)*e.metrics : (k+1)*e.metrics]
		// Blocked accumulation: each combo[j] is its own accumulator, so
		// unrolling across j changes no addition order. The row reslice
		// pins len(row) == len(combo) for the compiler's bounds checks.
		j := 0
		for ; j+4 <= len(row) && j+4 <= len(combo); j += 4 {
			combo[j] += f * row[j]
			combo[j+1] += f * row[j+1]
			combo[j+2] += f * row[j+2]
			combo[j+3] += f * row[j+3]
		}
		for ; j < len(row) && j < len(combo); j++ {
			combo[j] += f * row[j]
		}
		member += f * e.memberDist[k]
	}
	// Streaming weighted distance of the mix to the app: a single
	// accumulator in j order, exactly as stats.WeightedDistance computes
	// it — blocking this sum would change the bytes.
	var d float64
	app, weights := e.app, e.weights
	for j := range combo {
		diff := combo[j] - app[j]
		d += weights[j] * diff * diff
	}
	return math.Sqrt(d) + e.memberPenalty*member
}
