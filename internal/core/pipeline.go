// Package core implements SWAPP — Surrogate-based Workload Application
// Performance Projection — the paper's contribution. It projects the
// runtime of an HPC application onto a target machine using only:
//
//   - the application's profile on a base machine (MPI profile + hardware
//     counters at a few core counts), and
//   - benchmark data (SPEC CPU2006, IMB + multi-Sendrecv) on both the base
//     and target machines.
//
// The target machine is never given the application. The pipeline projects
// the compute component (§2.3: metric groups → ranking → base→target rank
// adjustment → GA surrogate search → Eq. 2) and the communication component
// (§2.4: MPI model × Eq. 3 target parameters, WaitTime extraction and
// scaling) separately, scales them with the CCSM and ACSM models (§3), and
// combines them (Eq. 6/7) into the full application projection.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/faultinject"
	"repro/internal/hpm"
	"repro/internal/imb"
	"repro/internal/mpiprof"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/quality"
	"repro/internal/spec"
	"repro/internal/units"
)

// Pipeline holds the benchmark data SWAPP is allowed to use for one
// (base, target) machine pair: everything here is either measured on the
// base machine or is "published benchmark data" for the target.
//
// A Pipeline is immutable after construction and safe for concurrent use.
type Pipeline struct {
	Base   *arch.Machine
	Target *arch.Machine

	// Workers bounds the pipeline's internal fan-out (benchmark
	// characterisation, GA ensemble): 0 means runtime.GOMAXPROCS(0),
	// 1 the serial path. Results are identical for every value.
	Workers int

	// Obs, when non-nil, receives spans and metrics for every stage run
	// through this pipeline (construction, characterisation, projection).
	// Observability never alters results (see internal/obs).
	Obs *obs.Scope

	// SPEC CPU2006: counters + runtimes on the base, runtimes on the
	// target (the paper uses published target numbers).
	SpecBase   map[string]spec.Result
	SpecTarget map[string]spec.Result

	// IMB + multi-Sendrecv parameter tables per core count (Eq. 3).
	IMBBase   map[int]*imb.Table
	IMBTarget map[int]*imb.Table

	// Defects records data problems found while assembling the benchmark
	// data (pool mismatches, count gaps, loader fallbacks). Every
	// projection through this pipeline inherits them into its Quality
	// report; empty for data gathered by running the benchmarks in-process.
	Defects []quality.Defect

	// store, when non-nil, is the layered artifact cache characterisation
	// and profiling resolve through (see Store). nil when the request
	// disabled it, supplied external Data, or — checked again at each use
	// — while fault injection is armed.
	store *Store
	// onGAProgress taps the surrogate search's per-generation progress
	// (see Options.OnGAProgress).
	onGAProgress func(member, gen int, best float64)
}

// storeFor returns the layer store to use right now: nil while fault
// injection is armed, so chaos runs can neither read clean artifacts into
// a corrupted evaluation nor publish corrupted artifacts under clean keys.
func (p *Pipeline) storeFor() *Store {
	if p.store == nil || faultinject.Enabled() {
		return nil
	}
	return p.store
}

// PipelineData supplies pre-measured benchmark data to NewPipeline instead
// of running the suites in-process — the paper's actual workflow, where
// target-machine numbers are published tables, not local runs. Any nil
// field (or missing IMB count) is still gathered by running the benchmark;
// provided parts are used as-is, so degraded external data flows through
// with its Defects rather than failing the build.
type PipelineData struct {
	SpecBase   map[string]spec.Result
	SpecTarget map[string]spec.Result
	IMBBase    map[int]*imb.Table
	IMBTarget  map[int]*imb.Table

	// Defects carries the loader's findings (see persist's lenient
	// decoders) into the pipeline's quality ledger.
	Defects []quality.Defect
}

// Options tunes pipeline construction. The zero value is the default.
type Options struct {
	// Workers bounds the concurrency of benchmark characterisation and
	// of later projections through this pipeline: 0 means
	// runtime.GOMAXPROCS(0), 1 the legacy serial path.
	Workers int
	// Obs, when non-nil, instruments the pipeline (spans + metrics). nil —
	// the default — is the zero-cost disabled layer.
	Obs *obs.Scope
	// Data, when non-nil, supplies pre-measured benchmark data; see
	// PipelineData.
	Data *PipelineData
	// Store, when non-nil, is a layered artifact cache shared across
	// pipelines (and therefore requests): machine characterisations and
	// application profiles are resolved through it instead of recomputed;
	// the GA surrogate search always runs. Every stored artifact is a pure
	// function of its key, so projections are byte-identical with or
	// without a store. Ignored when Data supplies external benchmark data
	// or while fault injection is armed — degraded inputs must never
	// populate the clean content-addressed keys.
	Store *Store
	// OnGAProgress, when non-nil, observes the surrogate search: it is
	// called once per evolved GA generation per ensemble member of every
	// projection through this pipeline, with the member index, generation
	// and running best fitness. Strictly passive:
	// projections are byte-identical with the callback set or nil. Members
	// run concurrently, so the callback must be safe for concurrent calls.
	OnGAProgress func(member, gen int, best float64)
}

// NewPipeline gathers benchmark data for a machine pair at the given job
// core counts. This is the expensive, application-independent setup the
// paper assumes done once per machine pair.
func NewPipeline(base, target *arch.Machine, rankCounts []int) (*Pipeline, error) {
	return NewPipelineOpts(base, target, rankCounts, Options{})
}

// NewPipelineOpts is NewPipeline with explicit options. The independent
// characterisations — SPEC on the base, SPEC on the target, and the IMB
// sweep per (machine, core count) — run concurrently on a bounded pool
// with first-error propagation; every run is a pure function of its
// (machine, workload) key, so the gathered tables are identical to the
// serial path's.
func NewPipelineOpts(base, target *arch.Machine, rankCounts []int, opts Options) (*Pipeline, error) {
	return NewPipelineCtx(context.Background(), base, target, rankCounts, opts)
}

// NewPipelineCtx is NewPipelineOpts under a context: construction checks
// ctx at every stage boundary (each SPEC suite and each per-count IMB
// sweep), so a cancelled or deadline-expired context aborts the gather
// promptly with ctx.Err() instead of finishing minutes of dead work. This
// is the entry point long-running services use to honour per-request
// deadlines.
func NewPipelineCtx(ctx context.Context, base, target *arch.Machine, rankCounts []int, opts Options) (*Pipeline, error) {
	if err := faultinject.Fire("core.pipeline"); err != nil {
		return nil, err
	}
	p := &Pipeline{
		Base:         base,
		Target:       target,
		Workers:      opts.Workers,
		Obs:          opts.Obs,
		IMBBase:      map[int]*imb.Table{},
		IMBTarget:    map[int]*imb.Table{},
		store:        opts.Store,
		onGAProgress: opts.OnGAProgress,
	}
	if opts.Data != nil {
		// External data bypasses the store for this pipeline's whole
		// lifetime: partially-supplied or degraded inputs must neither
		// poison the shared layers nor be silently completed from them.
		p.store = nil
	}
	st := p.storeFor()
	var dataDefects []quality.Defect
	if d := opts.Data; d != nil {
		p.SpecBase = d.SpecBase
		p.SpecTarget = d.SpecTarget
		for c, t := range d.IMBBase {
			p.IMBBase[c] = t
		}
		for c, t := range d.IMBTarget {
			p.IMBTarget[c] = t
		}
		dataDefects = d.Defects
	}
	counts := uniqueSorted(rankCounts)

	sp := opts.Obs.Child(fmt.Sprintf("core.pipeline.%s->%s", base.Name, target.Name))
	defer sp.End()

	var g par.Group
	g.SetLimit(par.Workers(opts.Workers))
	// Base-side SPEC runs carry measurement noise (we ran them); the
	// target numbers are published averages — modelled as noisy too.
	// Parts already supplied via Options.Data are not re-run.
	if p.SpecBase == nil {
		g.Go(func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			c := sp.Child("spec." + base.Name)
			defer c.End()
			var err error
			if p.SpecBase, err = gatherSpec(ctx, st, base); err != nil {
				return fmt.Errorf("core: SPEC on base: %w", err)
			}
			return nil
		})
	}
	if p.SpecTarget == nil {
		g.Go(func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			c := sp.Child("spec." + target.Name)
			defer c.End()
			var err error
			if p.SpecTarget, err = gatherSpec(ctx, st, target); err != nil {
				return fmt.Errorf("core: SPEC on target: %w", err)
			}
			return nil
		})
	}
	imbBase := make([]*imb.Table, len(counts))
	imbTarget := make([]*imb.Table, len(counts))
	// Largest tables first: Go blocks at the limit, so queue order is start
	// order, and the biggest table started last would set the makespan.
	for i := len(counts) - 1; i >= 0; i-- {
		i, c := i, counts[i]
		if p.IMBBase[c] == nil {
			g.Go(func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				s := sp.Child(fmt.Sprintf("imb.%s.%d", base.Name, c))
				defer s.End()
				tb, err := gatherIMB(ctx, st, base, c)
				if err != nil {
					return fmt.Errorf("core: IMB on base at %d ranks: %w", c, err)
				}
				imbBase[i] = tb
				return nil
			})
		}
		if p.IMBTarget[c] == nil {
			g.Go(func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				s := sp.Child(fmt.Sprintf("imb.%s.%d", target.Name, c))
				defer s.End()
				tt, err := gatherIMB(ctx, st, target, c)
				if err != nil {
					return fmt.Errorf("core: IMB on target at %d: %w", c, err)
				}
				imbTarget[i] = tt
				return nil
			})
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	for i, c := range counts {
		if imbBase[i] != nil {
			p.IMBBase[c] = imbBase[i]
		}
		if imbTarget[i] != nil {
			p.IMBTarget[c] = imbTarget[i]
		}
	}
	p.applyInjectedDrops()
	p.Defects = p.analyzeData(dataDefects)
	return p, nil
}

// gatherSpec runs (or resolves through the characterisation layer) one
// machine's SPEC CPU2006 suite. The suite is a pure function of the
// machine (measurement noise is key-seeded), so a stored result set is
// bit-identical to a fresh run's.
func gatherSpec(ctx context.Context, st *Store, m *arch.Machine) (map[string]spec.Result, error) {
	if st == nil {
		return spec.RunSuite(m, true)
	}
	return st.specSuite(ctx, m, func() (map[string]spec.Result, error) {
		return spec.RunSuite(m, true)
	})
}

// gatherIMB runs (or resolves through the characterisation layer) one
// machine's IMB sweep at a core count.
func gatherIMB(ctx context.Context, st *Store, m *arch.Machine, count int) (*imb.Table, error) {
	if st == nil {
		return imb.Run(m, count, nil)
	}
	return st.imbTable(ctx, m, count, func() (*imb.Table, error) {
		return imb.Run(m, count, nil)
	})
}

// applyInjectedDrops corrupts the gathered target-side data when the
// corresponding faultinject points are armed: chaos tests use these to
// prove the degraded-mode fallbacks on real pipelines without hand-built
// fixtures. Copies are mutated, never the gathered tables.
func (p *Pipeline) applyInjectedDrops() {
	if !faultinject.Enabled() {
		return
	}
	if faultinject.ShouldDrop("core.spec.target") && len(p.SpecTarget) > 0 {
		names := spec.SortedNames(p.SpecTarget)
		cp := make(map[string]spec.Result, len(p.SpecTarget))
		for k, v := range p.SpecTarget {
			cp[k] = v
		}
		delete(cp, names[0])
		p.SpecTarget = cp
	}
	if faultinject.ShouldDrop("core.imb.target") && len(p.IMBTarget) > 0 {
		cp := make(map[int]*imb.Table, len(p.IMBTarget))
		for c, t := range p.IMBTarget {
			cp[c] = t.TruncatedAbove(64 * units.KiB)
		}
		p.IMBTarget = cp
	}
}

// analyzeData inspects the assembled benchmark data for structural
// problems the projections will have to work around, merging them with the
// loader-reported defects. On cleanly gathered data it returns exactly
// dataDefects (nil in-process), keeping the full-fidelity path untouched.
func (p *Pipeline) analyzeData(dataDefects []quality.Defect) []quality.Defect {
	ds := append([]quality.Defect(nil), dataDefects...)

	// SPEC pool intersection: the surrogate search can only use benchmarks
	// measured on both machines.
	baseNames := spec.SortedNames(p.SpecBase)
	var missing []string
	for _, n := range baseNames {
		if _, ok := p.SpecTarget[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sev := quality.Minor
		if remaining := len(baseNames) - len(missing); remaining*4 < len(baseNames)*3 {
			// More than a quarter of the pool gone: the search space itself
			// is substantially poorer.
			sev = quality.Major
		}
		shown := missing
		if len(shown) > 3 {
			shown = shown[:3]
		}
		ds = append(ds, quality.Defect{
			Code: quality.MissingSpecBench, Component: quality.Data, Severity: sev,
			Detail: fmt.Sprintf("%d/%d base-pool benchmarks absent on target (%s); surrogate pool shrunk to the intersection",
				len(missing), len(baseNames), strings.Join(shown, ", ")),
		})
	}

	// IMB core counts present on one side only.
	for _, c := range sortedCounts(p.IMBBase) {
		if p.IMBTarget[c] == nil {
			ds = append(ds, quality.Defect{
				Code: quality.MissingIMBCount, Component: quality.Data, Severity: quality.Minor,
				Detail: fmt.Sprintf("target has no IMB tables at %d ranks; lookups fall back to the nearest shared count", c),
			})
		}
	}
	for _, c := range sortedCounts(p.IMBTarget) {
		if p.IMBBase[c] == nil {
			ds = append(ds, quality.Defect{
				Code: quality.MissingIMBCount, Component: quality.Data, Severity: quality.Minor,
				Detail: fmt.Sprintf("base has no IMB tables at %d ranks; lookups fall back to the nearest shared count", c),
			})
		}
	}
	return ds
}

// sortedCounts lists an IMB table map's core counts ascending.
func sortedCounts(m map[int]*imb.Table) []int {
	out := make([]int, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// uniqueSorted returns the distinct values of xs in ascending order.
func uniqueSorted(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// imbAt fetches a machine-pair's IMB tables for a core count. When the
// pipeline was not prepared for that count it substitutes the nearest
// count both machines hold — recording an IMBCountFallback defect on rec —
// and errors only when no shared count exists at all.
func (p *Pipeline) imbAt(c int, rec *quality.Report) (baseT, targetT *imb.Table, err error) {
	baseT, ok1 := p.IMBBase[c]
	targetT, ok2 := p.IMBTarget[c]
	if ok1 && ok2 {
		return baseT, targetT, nil
	}
	var shared []int
	for cc, t := range p.IMBBase {
		if t != nil && p.IMBTarget[cc] != nil {
			shared = append(shared, cc)
		}
	}
	if len(shared) == 0 {
		return nil, nil, fmt.Errorf("core: pipeline has no IMB tables for %d ranks", c)
	}
	sort.Ints(shared)
	best := shared[0]
	for _, cc := range shared {
		if abs(cc-c) < abs(best-c) {
			best = cc
		}
	}
	rec.Add(quality.Defect{
		Code: quality.IMBCountFallback, Component: quality.Comm, Severity: quality.Major,
		Detail: fmt.Sprintf("no IMB tables at %d ranks; substituted the tables at %d ranks", c, best),
	})
	return p.IMBBase[best], p.IMBTarget[best], nil
}

// CounterPair is one application characterisation observation: ST and SMT
// hardware-counter runs at one core count on the base machine.
type CounterPair struct {
	Ranks int
	ST    hpm.Counters
	SMT   hpm.Counters
}

// CharacterVector concatenates the ST and SMT metric vectors, matching
// spec.Result.CharacterVector's layout.
func (cp *CounterPair) CharacterVector() []float64 {
	return append(cp.ST.Vector(), cp.SMT.Vector()...)
}

// AppModel is everything SWAPP knows about an application: base-machine
// MPI profiles and hardware counters at several core counts. It never
// contains target-machine measurements.
type AppModel struct {
	Bench nas.Benchmark
	Class nas.Class

	// Counts are the base-machine core counts profiled, ascending.
	Counts []int
	// Profiles holds the base MPI profile per core count (§2.2).
	Profiles map[int]*mpiprof.Profile
	// Counters holds the ST+SMT counter observations per core count.
	Counters map[int]*CounterPair
}

// Name is the workload identity.
func (a *AppModel) Name() string { return fmt.Sprintf("%s.%s", a.Bench, a.Class) }

// CharacterizeApp runs the application on the base machine at each core
// count, collecting MPI profiles and (noisy) hardware counters — the §2
// measurement phase. counts nil defaults to the paper's sweep for the
// benchmark.
func (p *Pipeline) CharacterizeApp(b nas.Benchmark, c nas.Class, counts []int) (*AppModel, error) {
	return p.CharacterizeAppCtx(context.Background(), b, c, counts)
}

// CharacterizeAppCtx is CharacterizeApp under a context: each per-count
// profiling run checks ctx before starting, so cancellation aborts the
// sweep at the next stage boundary.
func (p *Pipeline) CharacterizeAppCtx(ctx context.Context, b nas.Benchmark, c nas.Class, counts []int) (*AppModel, error) {
	if counts == nil {
		counts = nas.PaperRankCounts(b)
	}
	app := &AppModel{
		Bench:    b,
		Class:    c,
		Counts:   append([]int(nil), counts...),
		Profiles: map[int]*mpiprof.Profile{},
		Counters: map[int]*CounterPair{},
	}
	sort.Ints(app.Counts)
	sp := p.Obs.Child("core.characterize." + app.Name())
	defer sp.End()
	if err := faultinject.Fire("core.characterize"); err != nil {
		return nil, err
	}
	// Each core count's profile + counter runs are independent pure
	// functions of (machine, workload, ranks) keys; fan them out and
	// collect by index — or resolve them through the profile layer, where
	// a request that shares this app and base machine with any prior one
	// finds the observations already made. The worker slot lands on the
	// span, so a trace shows how well the pool was utilised.
	st := p.storeFor()
	profiles := make([]*mpiprof.Profile, len(app.Counts))
	pairs := make([]*CounterPair, len(app.Counts))
	err := par.ForEachW(par.Workers(p.Workers), len(app.Counts), func(w, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ranks := app.Counts[i]
		s := sp.ChildW(fmt.Sprintf("profile.%d", ranks), w)
		defer s.End()
		art, err := p.profileArtifact(ctx, st, b, c, ranks)
		if err != nil {
			return err
		}
		profiles[i] = art.Profile
		pairs[i] = art.Counters
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, ranks := range app.Counts {
		app.Profiles[ranks] = profiles[i]
		app.Counters[ranks] = pairs[i]
	}
	return app, nil
}

// profileArtifact makes (or resolves through the profile layer) one
// (app, class, ranks) observation on the base machine: the MPI profile
// plus the ST/SMT counter pair. Both are pure functions of the key, so a
// stored artifact is identical to a fresh measurement.
func (p *Pipeline) profileArtifact(ctx context.Context, st *Store, b nas.Benchmark, c nas.Class, ranks int) (*ProfileArtifact, error) {
	fill := func() (*ProfileArtifact, error) {
		inst, err := nas.New(nas.Config{Bench: b, Class: c, Ranks: ranks})
		if err != nil {
			return nil, err
		}
		res, err := inst.Run(p.Base)
		if err != nil {
			return nil, fmt.Errorf("core: base profile at %d ranks: %w", ranks, err)
		}
		cp, err := p.measureCounters(inst, ranks)
		if err != nil {
			return nil, err
		}
		return &ProfileArtifact{Profile: res.Profile, Counters: cp}, nil
	}
	if st == nil {
		return fill()
	}
	return st.profileAt(ctx, p.Base, b, c, ranks, fill)
}

// measureCounters collects the ST and SMT hardware-counter observations of
// the application's per-rank compute kernel at one core count.
func (p *Pipeline) measureCounters(inst *nas.Instance, ranks int) (*CounterPair, error) {
	sig := inst.MeanRankSignature()
	active := p.Base.CoresPerNode
	if ranks < active {
		active = ranks
	}
	key := fmt.Sprintf("app-ci=%d", ranks)
	st, err := hpm.Run(sig, hpm.Config{
		Machine: p.Base, Mode: hpm.ST,
		ActiveTasksPerNode: active,
		MeasureNoise:       true, NoiseKey: key + "|st",
	})
	if err != nil {
		return nil, fmt.Errorf("core: counters at %d ranks: %w", ranks, err)
	}
	smtCfg := hpm.Config{
		Machine: p.Base, Mode: hpm.SMT,
		ActiveTasksPerNode: active * p.Base.Proc.SMTWays,
		MeasureNoise:       true, NoiseKey: key + "|smt",
	}
	if p.Base.Proc.SMTWays <= 1 {
		smtCfg.Mode = hpm.ST
		smtCfg.ActiveTasksPerNode = active
	}
	smt, err := hpm.Run(sig, smtCfg)
	if err != nil {
		return nil, fmt.Errorf("core: SMT counters at %d ranks: %w", ranks, err)
	}
	return &CounterPair{Ranks: ranks, ST: st, SMT: smt}, nil
}

// nearestCount returns the profiled core count closest to ck (ties toward
// the smaller), preferring an exact match.
func (a *AppModel) nearestCount(ck int) int {
	best := a.Counts[0]
	for _, c := range a.Counts {
		if abs(c-ck) < abs(best-ck) {
			best = c
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// computeTimes returns (counts, per-rank mean compute seconds) pairs from
// the base profiles — the CCSM input.
func (a *AppModel) computeTimes() (xs, ys []float64) {
	for _, c := range a.Counts {
		xs = append(xs, float64(c))
		ys = append(ys, a.Profiles[c].MeanCompute())
	}
	return
}

// baseComputeAt is the profiled per-rank mean compute time at a core count.
func (a *AppModel) baseComputeAt(c int) units.Seconds {
	return a.Profiles[c].MeanCompute()
}
