package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/ga"
	"repro/internal/hpm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/quality"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/units"
)

// SurrogateTerm is one benchmark in the selected surrogate, with its Eq. 2
// coefficient (normalised so coefficients sum to 1 over the surrogate).
type SurrogateTerm struct {
	Bench  string
	Weight float64
}

// ComputeProjection is the §2.3 output: the surrogate and the projected
// per-task compute time on the target at the characterisation core count.
type ComputeProjection struct {
	// Surrogate is the GA-selected benchmark group, heaviest first.
	Surrogate []SurrogateTerm
	// Fitness is the surrogate's weighted metric distance to the app.
	Fitness float64

	// CharCount is the base core count the characterisation used (Ci*).
	CharCount int
	// BaseTime is the profiled per-task compute time at CharCount.
	BaseTime units.Seconds
	// TargetTime is the projected per-task compute time at CharCount.
	TargetTime units.Seconds

	// GroupWeights are the adjusted metric-group weights (G1..G6), as
	// used in the similarity metric; exposed for reporting.
	GroupWeights [6]float64
	// Ranking is the metric groups (1..6) in descending weight order.
	Ranking [6]int
}

// SpeedupRatio is the surrogate-implied target/base compute-time ratio.
func (cp *ComputeProjection) SpeedupRatio() float64 {
	if cp.BaseTime == 0 {
		return 1
	}
	return cp.TargetTime / cp.BaseTime
}

// surrogateMaxSize caps how many benchmarks a surrogate may combine.
const surrogateMaxSize = 5

// groupContributions relates each metric group to the application's
// runtime on the base machine (§2.3 steps 2–3): the share of base-machine
// cycles (or pressure) each group explains.
func groupContributions(c *hpm.Counters) [6]float64 {
	var g [6]float64
	if c.CPI <= 0 {
		return g
	}
	g[0] = c.CPICompletion / c.CPI       // G1 completion
	g[1] = c.CPIStallTotal / c.CPI       // G2 stalls
	g[2] = math.Min(1, c.FPPerInstr*2.5) // G3 FP pressure
	g[3] = c.CPIStallTrans / c.CPI * 4   // G4 translation
	// The paper singles out G5 (data-cache reloads) as "of significant
	// importance" to behaviour matching; emphasise it accordingly.
	g[4] = 2 * c.CPIStallMem / c.CPI   // G5 cache reloads
	g[5] = math.Min(1, c.MemBWGBs/4.0) // G6 bandwidth pressure
	// Normalise to a distribution.
	var sum float64
	for _, v := range g {
		sum += v
	}
	if sum > 0 {
		for i := range g {
			g[i] /= sum
		}
	}
	return g
}

// metricScales returns per-dimension normalisation factors for the
// 26-entry character vector, from the benchmark pool's spread on the base
// machine: each dimension is divided by the pool's mean magnitude so that
// distances compare like with like.
func metricScales(specBase map[string]spec.Result) []float64 {
	n := 2 * hpm.NumMetrics
	scales := make([]float64, n)
	var count float64
	// Sorted iteration: float accumulation order must be stable for the
	// pipeline to be deterministic.
	for _, name := range spec.SortedNames(specBase) {
		r := specBase[name]
		v := r.CharacterVector()
		for i := 0; i < n; i++ {
			scales[i] += math.Abs(v[i])
		}
		count++
	}
	for i := range scales {
		scales[i] /= count
		if scales[i] < 1e-9 {
			scales[i] = 1e-9
		}
	}
	return scales
}

// normalize divides a character vector by the pool scales.
func normalize(v, scales []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] / scales[i]
	}
	return out
}

// adjustWeightsToTarget implements §2.3 step 4: the base-machine group
// ranking is adjusted using benchmark behaviour on both machines. For each
// metric dimension we correlate the pool's (normalised) base-machine metric
// with the pool's base→target log-speedup; dimensions that explain how the
// target diverges from the base gain weight.
func adjustWeightsToTarget(groupW [6]float64, specBase, specTarget map[string]spec.Result, scales []float64) [6]float64 {
	n := 2 * hpm.NumMetrics
	names := spec.SortedNames(specBase)
	// Assemble metric matrix and speedup vector over the pool.
	var speedups []float64
	metric := make([][]float64, 0, len(names))
	for _, name := range names {
		rb := specBase[name]
		rt, ok := specTarget[name]
		if !ok {
			continue
		}
		cv := rb.CharacterVector()
		metric = append(metric, normalize(cv, scales))
		speedups = append(speedups, math.Log(rt.ST.Runtime/rb.ST.Runtime))
	}
	// Per-dimension |correlation| with log speedup.
	corr := make([]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, len(metric))
		for i := range metric {
			col[i] = metric[i][j]
		}
		corr[j] = math.Abs(correlation(col, speedups))
	}
	// Average correlations per group (ST and SMT halves share groups).
	var adj [6]float64
	var cnt [6]int
	for j := 0; j < n; j++ {
		grp := hpm.MetricGroupOf(j%hpm.NumMetrics) - 1
		adj[grp] += corr[j]
		cnt[grp]++
	}
	var out [6]float64
	var sum float64
	for gi := range out {
		mean := adj[gi] / float64(cnt[gi])
		out[gi] = groupW[gi] * (0.35 + mean)
		sum += out[gi]
	}
	if sum > 0 {
		for gi := range out {
			out[gi] /= sum
		}
	}
	return out
}

// correlation is the Pearson correlation of two equal-length samples (0 on
// degenerate input).
func correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ma, mb := stats.Mean(a), stats.Mean(b)
	var saa, sbb, sab float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		saa += da * da
		sbb += db * db
		sab += da * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// metricWeights expands group weights into the 26-dimension weight vector
// used by the similarity metric.
func metricWeights(groupW [6]float64) []float64 {
	n := 2 * hpm.NumMetrics
	w := make([]float64, n)
	var perGroup [6]int
	for j := 0; j < hpm.NumMetrics; j++ {
		perGroup[hpm.MetricGroupOf(j)-1]++
	}
	for j := 0; j < n; j++ {
		grp := hpm.MetricGroupOf(j%hpm.NumMetrics) - 1
		w[j] = groupW[grp] / float64(2*perGroup[grp])
	}
	return w
}

// rankingOf orders groups 1..6 by descending weight.
func rankingOf(groupW [6]float64) [6]int {
	idx := []int{0, 1, 2, 3, 4, 5}
	sort.Slice(idx, func(a, b int) bool {
		if groupW[idx[a]] != groupW[idx[b]] {
			return groupW[idx[a]] > groupW[idx[b]]
		}
		return idx[a] < idx[b]
	})
	var out [6]int
	for i, g := range idx {
		out[i] = g + 1
	}
	return out
}

// ComputeOptions turns off individual steps of the §2.3 pipeline, for the
// ablation benchmarks. The zero value is the full method.
type ComputeOptions struct {
	// SkipRankAdjustment disables step 4 (the base→target adjustment of
	// the metric-group ranking).
	SkipRankAdjustment bool
	// UseNNLS replaces the GA surrogate search (step 5) with a dense
	// non-negative least-squares fit over the whole pool.
	UseNNLS bool
}

// ProjectCompute runs the §2.3 compute projection for the application
// characterised at core count ci (which must be one of the profiled
// counts).
func (p *Pipeline) ProjectCompute(app *AppModel, ci int) (*ComputeProjection, error) {
	return p.ProjectComputeOpts(app, ci, ComputeOptions{})
}

// ProjectComputeOpts is ProjectCompute with ablation switches.
func (p *Pipeline) ProjectComputeOpts(app *AppModel, ci int, opts ComputeOptions) (*ComputeProjection, error) {
	return p.computeSurrogate(context.Background(), p.Obs, app, ci, opts, nil)
}

// computeSurrogate is the §2.3 implementation, with its span attached
// under parent (p.Obs for direct calls, the enclosing projection's span
// when called from project). ctx is checked before each GA ensemble
// member, the expensive stage of the compute projection. Degraded-mode
// fallbacks (GA quarantine) are recorded on rec (nil-safe).
func (p *Pipeline) computeSurrogate(ctx context.Context, parent *obs.Scope, app *AppModel, ci int, opts ComputeOptions, rec *quality.Report) (*ComputeProjection, error) {
	cp, ok := app.Counters[ci]
	if !ok {
		return nil, fmt.Errorf("core: no counters at %d ranks for %s", ci, app.Name())
	}
	scales := metricScales(p.SpecBase)

	// Steps 2–3: relate metrics to runtime, rank the groups.
	groupW := groupContributions(&cp.ST)
	// Step 4: adjust the ranking to the target.
	if !opts.SkipRankAdjustment {
		groupW = adjustWeightsToTarget(groupW, p.SpecBase, p.SpecTarget, scales)
	}
	weights := metricWeights(groupW)

	appVec := normalize(cp.CharacterVector(), scales)

	// Step 5: GA surrogate search over the pool. The pool is the
	// intersection of the two machines' benchmark sets: a base-only
	// benchmark has no target runtime and cannot contribute to the ratio.
	// On complete data the intersection IS the base pool, so this is the
	// identity there; a shrunk pool was already recorded as a
	// MissingSpecBench defect when the pipeline analysed its data.
	var names []string
	for _, name := range spec.SortedNames(p.SpecBase) {
		if _, ok := p.SpecTarget[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) < 2 {
		return nil, fmt.Errorf("core: surrogate pool too small: base and target share %d benchmarks", len(names))
	}
	pool := make([][]float64, len(names))
	for i, name := range names {
		rb := p.SpecBase[name]
		pool[i] = normalize(rb.CharacterVector(), scales)
	}
	// Fitness: the weighted mix must match the app's behaviour, and —
	// because performance ratios do not mix linearly the way metrics do —
	// each member must itself behave like the app (the paper's surrogate
	// is "benchmarks that have similar behavior as the HPC application",
	// not an arbitrary combination that cancels to the right average).
	// The objective is compiled once into an EvalKernel (see kernel.go)
	// shared read-only by the whole ensemble; each member's objective
	// closes over a scratch row of its own, so members never share state.
	const memberPenalty = 1.0
	kern := NewEvalKernel(pool, appVec, weights, memberPenalty)
	if opts.UseNNLS {
		return p.nnlsProjection(app, ci, pool, appVec, weights, groupW, names)
	}

	// The GA is stochastic; an ensemble of independent runs stabilises
	// the projected ratio. The best-fitness genome is reported as the
	// surrogate; the ratio is the fitness-weighted ensemble mean. The
	// members are independently seeded, so they run concurrently on the
	// pipeline's pool; their results are combined serially in member
	// order, keeping the floating-point accumulation — and therefore the
	// projection — identical to the serial path.
	sp := parent.Child(fmt.Sprintf("core.compute.%s@%d", app.Name(), ci))
	defer sp.End()
	const ensemble = 3
	members := make([]*ga.Result, ensemble)
	err := par.ForEachW(par.Workers(p.Workers), ensemble, func(w, e int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ms := sp.ChildW(fmt.Sprintf("ga.member.%d", e), w)
		defer ms.End()
		// The kernel is shared read-only across the ensemble; the scratch
		// row is this member's own, and its GA scores serially.
		scratch := kern.NewScratch()
		cfg := ga.Config{
			GenomeLen: len(names),
			MaxActive: surrogateMaxSize,
			Seed:      fmt.Sprintf("surrogate|%s|%s|%d|%d", app.Name(), p.Target.Name, ci, e),
			Fitness: func(genome []float64) float64 {
				return kern.Objective(genome, scratch)
			},
			Obs: ms,
		}
		if p.onGAProgress != nil {
			member := e
			cfg.OnGeneration = func(gen int, best float64) {
				p.onGAProgress(member, gen, best)
			}
		}
		res, err := ga.Run(cfg)
		if err != nil {
			return err
		}
		members[e] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var bestGenome []float64
	bestFitness := math.Inf(1)
	var ratioSum, ratioWeight float64
	var quarantined, unusable int
	for _, res := range members {
		quarantined += res.Quarantined
		// A member whose whole population was quarantined (every fitness
		// +Inf) has no meaningful surrogate: skip it rather than poison the
		// ensemble mean with NaN.
		if math.IsInf(res.BestFitness, 1) || math.IsNaN(res.BestFitness) {
			unusable++
			continue
		}
		var wsum, baseMix, targetMix float64
		for _, w := range res.Best {
			wsum += w
		}
		for k, w := range res.Best {
			if w == 0 {
				continue
			}
			f := w / wsum
			name := names[k]
			baseMix += f * p.SpecBase[name].ST.Runtime
			targetMix += f * p.SpecTarget[name].ST.Runtime
		}
		if wsum <= 0 || baseMix <= 0 {
			unusable++
			continue
		}
		rw := 1 / (res.BestFitness + 1e-6)
		ratioSum += rw * targetMix / baseMix
		ratioWeight += rw
		if res.BestFitness < bestFitness {
			bestFitness = res.BestFitness
			bestGenome = res.Best
		}
	}
	if ratioWeight <= 0 {
		return nil, fmt.Errorf("core: surrogate search failed: all %d GA ensemble members quarantined", ensemble)
	}
	if quarantined > 0 {
		sev := quality.Minor
		if unusable > 0 {
			sev = quality.Major
		}
		rec.Add(quality.Defect{
			Code: quality.GAQuarantine, Component: quality.Compute, Severity: sev,
			Detail: fmt.Sprintf("%d fitness evaluations quarantined (worst score substituted); %d/%d ensemble members usable",
				quarantined, ensemble-unusable, ensemble),
		})
	}

	// Normalise the best genome's coefficients for reporting (Eq. 2 with
	// the app's base time as the scale).
	var wsum float64
	for _, w := range bestGenome {
		wsum += w
	}
	var terms []SurrogateTerm
	for k, w := range bestGenome {
		if w == 0 {
			continue
		}
		terms = append(terms, SurrogateTerm{Bench: names[k], Weight: w / wsum})
	}
	sort.Slice(terms, func(a, b int) bool {
		if terms[a].Weight != terms[b].Weight {
			return terms[a].Weight > terms[b].Weight
		}
		return terms[a].Bench < terms[b].Bench
	})
	baseTime := app.baseComputeAt(ci)
	proj := &ComputeProjection{
		Surrogate:    terms,
		Fitness:      bestFitness,
		CharCount:    ci,
		BaseTime:     baseTime,
		TargetTime:   baseTime * ratioSum / ratioWeight,
		GroupWeights: groupW,
		Ranking:      rankingOf(groupW),
	}
	sp.Count("core.compute_projections", 1)
	sp.Observe("core.compute_ratio", proj.SpeedupRatio())
	return proj, nil
}

// CCSM — Compute Component Strong Scaling Model (§3.2): a power-law fit of
// per-task compute time against core count.
type CCSM struct {
	K, P float64 // time(C) = K · C^P
}

// FitCCSM fits the scaling model from the app's base profiles.
func FitCCSM(app *AppModel) (*CCSM, error) {
	xs, ys := app.computeTimes()
	if len(xs) < 2 {
		// A single observation cannot be fitted; assume ideal strong
		// scaling, which is exact for a fixed-work-per-rank split.
		return &CCSM{K: ys[0] * xs[0], P: -1}, nil
	}
	k, pw, err := stats.PowerFit(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("core: CCSM fit: %w", err)
	}
	return &CCSM{K: k, P: pw}, nil
}

// Gamma is the §3.2 scaling factor from core count from → to.
func (m *CCSM) Gamma(from, to int) float64 {
	if from == to {
		return 1
	}
	return math.Pow(float64(to)/float64(from), m.P)
}

// TimeAt evaluates the fitted per-task compute time at a core count.
func (m *CCSM) TimeAt(c int) units.Seconds {
	return m.K * math.Pow(float64(c), m.P)
}

// ACSM — Application Cache Strong Scaling Model (§3.1): extrapolates the
// G5 data-from-L3 metric (m5,2) against log2(core count) to find the core
// count Ch at which the working set drops out of L3 — the hyper-scaling
// point.
type ACSM struct {
	// Ch is the hyper-scaling core count; +Inf when the trend never
	// reaches zero in range.
	Ch float64
	// Valid reports whether a descending trend was found.
	Valid bool
}

// FitACSM extrapolates m5,2 (data from L3 per instruction) over the
// profiled core counts.
func FitACSM(app *AppModel) *ACSM {
	var xs, ys []float64
	for _, c := range app.Counts {
		cp := app.Counters[c]
		xs = append(xs, math.Log2(float64(c)))
		ys = append(ys, cp.ST.DataFromL3)
	}
	// Already contained: the footprint fits below L3 everywhere.
	allZero := true
	for _, y := range ys {
		if y > 1e-9 {
			allZero = false
		}
	}
	if allZero {
		return &ACSM{Ch: float64(app.Counts[0]), Valid: true}
	}
	x0, err := stats.ZeroCrossing(xs, ys)
	if err != nil {
		return &ACSM{Ch: math.Inf(1), Valid: false}
	}
	return &ACSM{Ch: math.Pow(2, x0), Valid: true}
}

// HyperScalesBetween reports whether the cache footprint transition falls
// strictly between two core counts — the regime where the CCSM power law
// is unreliable (§3.3 step 2).
func (a *ACSM) HyperScalesBetween(from, to int) bool {
	if !a.Valid || math.IsInf(a.Ch, 1) {
		return false
	}
	lo, hi := float64(from), float64(to)
	if lo > hi {
		lo, hi = hi, lo
	}
	return a.Ch > lo && a.Ch < hi
}

// MemberDistance is a diagnostic: one benchmark's weighted metric distance
// to an application characterisation, with its base→target runtime ratio.
type MemberDistance struct {
	Bench string
	Dist  float64
	Ratio float64
}

// DebugMemberDistances exposes the surrogate search's view of the pool for
// diagnostics and reporting: each benchmark's distance to the app at the
// given characterisation count, under the adjusted metric weighting.
func DebugMemberDistances(p *Pipeline, app *AppModel, ci int) []MemberDistance {
	cp := app.Counters[ci]
	scales := metricScales(p.SpecBase)
	groupW := groupContributions(&cp.ST)
	groupW = adjustWeightsToTarget(groupW, p.SpecBase, p.SpecTarget, scales)
	weights := metricWeights(groupW)
	appVec := normalize(cp.CharacterVector(), scales)
	var out []MemberDistance
	for _, name := range spec.SortedNames(p.SpecBase) {
		rb := p.SpecBase[name]
		rt, ok := p.SpecTarget[name]
		if !ok {
			continue // base-only benchmark: no target ratio to report
		}
		v := normalize(rb.CharacterVector(), scales)
		out = append(out, MemberDistance{
			Bench: name,
			Dist:  stats.WeightedDistance(v, appVec, weights),
			Ratio: rt.ST.Runtime / rb.ST.Runtime,
		})
	}
	return out
}

// nnlsProjection is the GA ablation baseline: a dense non-negative
// least-squares fit of the app's weighted metric vector over the whole
// pool, with no sparsity and no member-similarity pressure.
func (p *Pipeline) nnlsProjection(app *AppModel, ci int, pool [][]float64, appVec, weights []float64, groupW [6]float64, names []string) (*ComputeProjection, error) {
	// Row-weighted design matrix: rows are metric dimensions, columns
	// benchmarks.
	rows := len(appVec)
	A := make([][]float64, rows)
	b := make([]float64, rows)
	for j := 0; j < rows; j++ {
		w := math.Sqrt(weights[j])
		A[j] = make([]float64, len(pool))
		for k := range pool {
			A[j][k] = w * pool[k][j]
		}
		b[j] = w * appVec[j]
	}
	x, err := stats.NNLS(A, b, 20000)
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
		baseMix += f * p.SpecBase[names[k]].ST.Runtime
		targetMix += f * p.SpecTarget[names[k]].ST.Runtime
		terms = append(terms, SurrogateTerm{Bench: names[k], Weight: f})
	}
	sort.Slice(terms, func(a, b int) bool {
		if terms[a].Weight != terms[b].Weight {
			return terms[a].Weight > terms[b].Weight
		}
		return terms[a].Bench < terms[b].Bench
	})
	baseTime := app.baseComputeAt(ci)
	return &ComputeProjection{
		Surrogate:    terms,
		Fitness:      stats.Residual(A, x, b),
		CharCount:    ci,
		BaseTime:     baseTime,
		TargetTime:   baseTime * targetMix / baseMix,
		GroupWeights: groupW,
		Ranking:      rankingOf(groupW),
	}, nil
}
