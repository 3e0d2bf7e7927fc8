package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/ga"
	"repro/internal/hpm"
	"repro/internal/obs"
	"repro/internal/par"
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

// characterVector writes the 26-entry character vector of an ST/SMT
// counter pair into dst: the ST metric vector, then the SMT one — the
// behaviour coordinates surrogate matching compares.
func characterVector(dst []float64, st, smt *hpm.Counters) {
	copy(dst, st.Vector())
	copy(dst[hpm.NumMetrics:], smt.Vector())
}

// metricScales writes into scales the per-dimension normalisation factors
// for the 26-entry character vector, from the benchmark pool's spread on
// the base machine: each dimension is divided by the pool's mean magnitude
// so that distances compare like with like. vecs holds the pool's base
// character vectors end to end, in sorted order: float accumulation order
// must be stable for the pipeline to be deterministic.
func metricScales(scales, vecs []float64) {
	n := len(scales)
	var count float64
	for v := vecs; len(v) > 0; v = v[n:] {
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
}

// adjustWeightsToTarget implements §2.3 step 4: the base-machine group
// ranking is adjusted using benchmark behaviour on both machines. For each
// metric dimension we correlate the pool's (normalised) base-machine metric
// with the pool's base→target log-speedup; dimensions that explain how the
// target diverges from the base gain weight.
func adjustWeightsToTarget(groupW [6]float64, s surrogateSpace, specBase, specTarget map[string]spec.Result) [6]float64 {
	const n = 2 * hpm.NumMetrics
	// The speedup vector and one metric column, reused per dimension.
	buf := make([]float64, 2*len(s.names))
	speedups, col := buf[:len(s.names)], buf[len(s.names):]
	for i, name := range s.names {
		speedups[i] = math.Log(specTarget[name].ST.Runtime / specBase[name].ST.Runtime)
	}
	// Per-dimension |correlation| with log speedup.
	var corr [n]float64
	for j := range corr {
		for i, v := range s.pool {
			col[i] = v[j]
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

// ProjectCompute runs the §2.3 compute projection for the application
// characterised at core count ci (which must be one of the profiled
// counts).
func (p *Pipeline) ProjectCompute(app *AppModel, ci int) (*ComputeProjection, error) {
	return p.computeSurrogate(context.Background(), p.Obs, app, ci)
}

// surrogateSpace is what the §2.3 surrogate search ranges over for an
// application characterised at one core count.
type surrogateSpace struct {
	cp *CounterPair
	// scales are the pool's per-dimension normalisation (metricScales).
	scales []float64
	// names are the benchmarks measured on both machines, sorted; pool
	// holds their normalised base-machine character vectors, in order.
	names []string
	pool  [][]float64
	// appVec is the application's normalised character vector.
	appVec []float64
}

// surrogateSpaceAt builds the search space for app's characterisation at
// ci. The pool is the intersection of the two machines' benchmark sets: a
// base-only benchmark has no target runtime and cannot contribute to the
// ratio. On complete data the intersection IS the base pool, so this is the
// identity there; a shrunk pool was already recorded as a MissingSpecBench
// defect when the pipeline analysed its data. A pool benchmark whose
// target/base ST runtime ratio is not finite and positive is refused by
// name: its log speedup (adjustWeightsToTarget) would turn every
// metric-group weight NaN, and the search would find no surrogate.
//
// It makes one pass over the base pool, and one allocation holds every
// vector it builds: the base character vectors, the scales taken from
// them, the pool's normalised vectors and the application's.
func (p *Pipeline) surrogateSpaceAt(app *AppModel, ci int) (surrogateSpace, error) {
	cp, ok := app.Counters[ci]
	if !ok {
		return surrogateSpace{}, fmt.Errorf("core: no counters at %d ranks for %s", ci, app.Name())
	}
	const n = 2 * hpm.NumMetrics
	base := spec.SortedNames(p.SpecBase)
	slab := make([]float64, (2*len(base)+2)*n)
	vecs, slab := slab[:len(base)*n], slab[len(base)*n:]
	for i, name := range base {
		r := p.SpecBase[name]
		characterVector(vecs[i*n:], &r.ST, &r.SMT)
	}
	s := surrogateSpace{cp: cp, scales: slab[:n:n], names: base[:0], pool: make([][]float64, 0, len(base))}
	metricScales(s.scales, vecs)
	slab = slab[n:]
	for i, name := range base {
		t, ok := p.SpecTarget[name]
		if !ok {
			continue
		}
		tr, br := t.ST.Runtime, p.SpecBase[name].ST.Runtime
		if ratio := tr / br; !(ratio > 0) || math.IsInf(ratio, 1) {
			return surrogateSpace{}, fmt.Errorf("core: SPEC %s: ST runtime %g s on %s over %g s on %s is not a finite positive ratio",
				name, tr, p.Target.Name, br, p.Base.Name)
		}
		row := slab[:n:n]
		slab = slab[n:]
		normalize(row, vecs[i*n:(i+1)*n], s.scales)
		s.names = append(s.names, name)
		s.pool = append(s.pool, row)
	}
	if len(s.names) < 2 {
		return surrogateSpace{}, fmt.Errorf("core: surrogate pool too small: base and target share %d benchmarks", len(s.names))
	}
	s.appVec = slab[:n:n]
	characterVector(s.appVec, &cp.ST, &cp.SMT)
	normalize(s.appVec, s.appVec, s.scales)
	return s, nil
}

// normalize writes v divided by the pool scales into dst, which may be v.
func normalize(dst, v, scales []float64) {
	for i := range v {
		dst[i] = v[i] / scales[i]
	}
}

// groupWeights is §2.3 steps 2–4 for the characterisation s: relate the
// metric groups to base-machine runtime, rank them, and adjust the ranking
// to the target.
func (p *Pipeline) groupWeights(s surrogateSpace) [6]float64 {
	return adjustWeightsToTarget(groupContributions(&s.cp.ST), s, p.SpecBase, p.SpecTarget)
}

// computeSurrogate is the §2.3 implementation, with its span attached
// under parent (p.Obs for direct calls, the enclosing projection's span
// when called from project).
func (p *Pipeline) computeSurrogate(ctx context.Context, parent *obs.Scope, app *AppModel, ci int) (*ComputeProjection, error) {
	s, err := p.surrogateSpaceAt(app, ci)
	if err != nil {
		return nil, err
	}
	return p.searchSurrogate(ctx, parent, app, ci, s, p.groupWeights(s))
}

// The GA ensemble: how many independently seeded searches a surrogate
// search combines, how many generations each runs, and how many slices
// of generations each is cut into for the pool.
const (
	ensemble             = 3
	surrogateGenerations = 120
	gaSlices             = 4
)

// searchSurrogate is §2.3 step 5 and Eq. 2: the GA surrogate search over
// s under the metric-group weights groupW, and the projected compute time.
// ctx is checked before each slice of the GA ensemble, the expensive stage
// of the compute projection.
func (p *Pipeline) searchSurrogate(ctx context.Context, parent *obs.Scope, app *AppModel, ci int, s surrogateSpace, groupW [6]float64) (*ComputeProjection, error) {
	sp := parent.Child(fmt.Sprintf("core.compute.%s@%d", app.Name(), ci))
	defer sp.End()
	members, err := searchEnsemble(ctx, par.Workers(p.Workers), p.ensembleConfigs(app, ci, s, groupW, sp))
	if err != nil {
		return nil, err
	}
	proj, err := p.combineEnsemble(app, ci, s.names, groupW, members)
	if err != nil {
		return nil, err
	}
	sp.Count("core.compute_projections", 1)
	sp.Observe("core.compute_ratio", proj.SpeedupRatio())
	return proj, nil
}

// ensembleConfigs is each ensemble member's GA configuration. Fitness: the
// weighted mix must match the app's behaviour, and — because performance
// ratios do not mix linearly the way metrics do — each member must itself
// behave like the app (the paper's surrogate is "benchmarks that have
// similar behavior as the HPC application", not an arbitrary combination
// that cancels to the right average). The objective is compiled once into
// an EvalKernel (see kernel.go) shared read-only by the whole ensemble;
// each member's objective closes over a scratch row of its own, so
// members never share state.
func (p *Pipeline) ensembleConfigs(app *AppModel, ci int, s surrogateSpace, groupW [6]float64, sp *obs.Scope) [ensemble]ga.Config {
	const memberPenalty = 1.0
	kern := NewEvalKernel(s.pool, s.appVec, metricWeights(groupW), memberPenalty)
	var cfgs [ensemble]ga.Config
	for e := range cfgs {
		scratch := kern.NewScratch()
		cfgs[e] = ga.Config{
			GenomeLen:   len(s.names),
			MaxActive:   surrogateMaxSize,
			Generations: surrogateGenerations,
			Seed:        fmt.Sprintf("surrogate|%s|%s|%d|%d", app.Name(), p.Target.Name, ci, e),
			Fitness: func(genome []float64) float64 {
				return kern.Objective(genome, scratch)
			},
			Obs: sp,
		}
	}
	return cfgs
}

// searchEnsemble runs one GA search per configuration on workers
// goroutines and returns the results in member order. The members are
// independently seeded, so only their slices' order within a member
// matters: each search's generations are cut into gaSlices slices, and
// the ensemble·gaSlices slices are one par.ForEachW index space,
// slice-major (index = slice·ensemble + member). That is McNaughton's
// wrap-around schedule: three members take 1.5 member-times on two
// workers and one on three or more, where whole members would take two
// on two. A slice waits for its member's previous slice, which has a
// lower index; ForEachW hands indices out in ascending order, so that
// slice is running or done, and the pool cannot deadlock. ctx is checked
// before each slice, so a deadline stops the search within one slice. At
// one worker the slices run in index order on the calling goroutine.
func searchEnsemble(ctx context.Context, workers int, cfgs [ensemble]ga.Config) ([ensemble]*ga.Result, error) {
	r := &ensembleRun{cfgs: cfgs}
	r.advanced.L = &r.mu
	var res [ensemble]*ga.Result
	if err := par.ForEachW(workers, ensemble*gaSlices, func(_, i int) error {
		return r.slice(ctx, i)
	}); err != nil {
		return res, err
	}
	// Every slice has run: the searches end serially, in member order.
	for m, s := range r.searches {
		res[m] = s.Result()
	}
	return res, nil
}

// ensembleRun is the state searchEnsemble's slices share: each member's
// search and how many of its slices have finished, and whether a slice
// has failed. advanced is broadcast whenever a slice ends.
type ensembleRun struct {
	cfgs     [ensemble]ga.Config
	mu       sync.Mutex
	advanced sync.Cond
	searches [ensemble]*ga.Search
	done     [ensemble]int
	failed   bool
}

// slice runs slice i/ensemble of member i%ensemble once the member's
// previous slice has finished. Only the slice that fails returns its
// error: a slice that finds the ensemble failed returns nil at once, so
// ForEachW reports the failure itself.
func (r *ensembleRun) slice(ctx context.Context, i int) error {
	slice, m := i/ensemble, i%ensemble
	r.mu.Lock()
	for r.done[m] < slice && !r.failed {
		r.advanced.Wait()
	}
	failed := r.failed
	r.mu.Unlock()
	if failed {
		return nil
	}
	// A slice that errors, is cancelled or panics fails the ensemble, and
	// the broadcast ends every wait.
	finished := false
	defer func() {
		r.mu.Lock()
		if finished {
			r.done[m]++
		} else {
			r.failed = true
		}
		r.mu.Unlock()
		r.advanced.Broadcast()
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	if slice == 0 {
		s, err := ga.Start(r.cfgs[m])
		if err != nil {
			return err
		}
		r.searches[m] = s
	}
	r.searches[m].Evolve((surrogateGenerations + gaSlices - 1) / gaSlices)
	finished = true
	return nil
}

// combineEnsemble is Eq. 2 over the ensemble's results. The GA is
// stochastic; an ensemble of independent runs stabilises the projected
// ratio. The best-fitness genome is reported as the surrogate, and the
// ratio is the fitness-weighted ensemble mean. The members are combined serially in
// member order, so the floating-point accumulation — and therefore the
// projection — is the same at any worker count.
func (p *Pipeline) combineEnsemble(app *AppModel, ci int, names []string, groupW [6]float64, members [ensemble]*ga.Result) (*ComputeProjection, error) {
	var bestGenome []float64
	bestFitness := math.Inf(1)
	var ratioSum, ratioWeight float64
	for _, res := range members {
		// A member with a non-finite best fitness has no meaningful
		// surrogate: skip it rather than poison the ensemble mean with NaN.
		if math.IsInf(res.BestFitness, 1) || math.IsNaN(res.BestFitness) {
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
		return nil, fmt.Errorf("core: surrogate search failed: none of %d GA ensemble members found a usable surrogate", ensemble)
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
	if len(xs) == 0 {
		return nil, errNoCounts(app)
	}
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
	if allZero && len(ys) > 0 {
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
// given characterisation count, under the adjusted metric weighting. It is
// nil where the search has no pool (no counters at ci, or fewer than two
// benchmarks shared by base and target).
func DebugMemberDistances(p *Pipeline, app *AppModel, ci int) []MemberDistance {
	s, err := p.surrogateSpaceAt(app, ci)
	if err != nil {
		return nil
	}
	weights := metricWeights(p.groupWeights(s))
	out := make([]MemberDistance, len(s.names))
	for k, name := range s.names {
		out[k] = MemberDistance{
			Bench: name,
			Dist:  stats.WeightedDistance(s.pool[k], s.appVec, weights),
			Ratio: p.SpecTarget[name].ST.Runtime / p.SpecBase[name].ST.Runtime,
		}
	}
	return out
}
