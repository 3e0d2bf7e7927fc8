// Package figures regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (benchmark communication characteristics on the
// base machine), Table 2 (system configurations), Figures 3–9 (percent
// projection error per component, per benchmark, per target system) and
// the summary statistics (per-system average error and standard deviation,
// share of over-projections).
//
// A Runner evaluates each validation cell through core.Prepare — the
// preparation step swapp's projections (and so swappd's /v1/validate) run —
// against one core.Store it owns, so a benchmark characterisation or an
// application profile shared by several cells and targets is simulated
// once. Finished validations are memoised in an lru.Cache, single-flight,
// so concurrent requests for a cell share one computation. It is safe for
// concurrent use: Summarize, BenchFigure and LUFigure evaluate their cells
// on a shared bounded worker pool before assembling the output in the
// paper's fixed order — so the emitted figures and statistics are
// byte-identical to a serial run whatever Workers is set to.
package figures

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// Targets lists the three projection targets in the paper's order.
func Targets() []string {
	return []string{arch.BlueGene, arch.Power6, arch.Westmere}
}

// Cell is one bar group of a figure: the absolute percent error of each
// projected component at one (core count, class).
type Cell struct {
	Ck    int
	Class nas.Class

	// Component |errors| in percent, matching the paper's legend.
	P2PNB       float64 // non-blocking point-to-point
	P2PB        float64 // blocking point-to-point (absent in NAS-MZ: 0)
	Collectives float64
	OverallComm float64
	Computation float64
	Combined    float64

	// Signed combined error, for the over-projection statistic.
	CombinedSigned float64
}

// Figure is one of the paper's Figures 3–9: a benchmark on a target
// system across core counts and classes.
type Figure struct {
	ID     string
	Title  string
	Bench  nas.Benchmark
	Target string
	Cells  []Cell
}

// MeanCombined is the figure's average |combined error|.
func (f *Figure) MeanCombined() float64 {
	var xs []float64
	for _, c := range f.Cells {
		xs = append(xs, c.Combined)
	}
	return stats.Mean(xs)
}

// figureIDs maps (benchmark, target) to the paper's figure numbering.
// LU-MZ shares Figure 6 across all three systems.
var figureIDs = map[nas.Benchmark]map[string]string{
	nas.BT: {arch.BlueGene: "fig3", arch.Power6: "fig4", arch.Westmere: "fig5"},
	nas.LU: {arch.BlueGene: "fig6", arch.Power6: "fig6", arch.Westmere: "fig6"},
	nas.SP: {arch.BlueGene: "fig7", arch.Power6: "fig8", arch.Westmere: "fig9"},
}

// FigureID returns the paper's figure id for a (benchmark, target) pair.
func FigureID(b nas.Benchmark, target string) string { return figureIDs[b][target] }

// Runner executes the full evaluation, evaluating each cell once.
type Runner struct {
	Base string
	// Verbose, if set, receives progress lines. The Runner serialises
	// calls, so the hook need not be safe for concurrent use itself.
	Verbose func(format string, args ...any)
	// Workers bounds the evaluation pool shared by Summarize and the
	// per-figure generators, and the pipelines' internal fan-out:
	// 0 means runtime.GOMAXPROCS(0), 1 the legacy serial path. Output is
	// identical for every value.
	Workers int
	// Obs, when non-nil, instruments the evaluation: per-cell spans and
	// timings (figures.cell_seconds), pipeline and characterisation spans
	// via core, the GA's counters, and the store's core.store.* counters.
	// Set it before the first evaluation: the store reports to the scope
	// set then. Figures are byte-identical with Obs set or nil.
	Obs *obs.Scope

	logMu sync.Mutex // serialises Verbose calls
	// store holds the characterisations and profiles every cell shares;
	// it is built at the first evaluation (see storeFor).
	store atomic.Pointer[core.Store]
	// done memoises finished validations by cell.
	done *lru.Cache[cellKey, *core.Validation]
}

// NewRunner creates a Runner projecting from the paper's base machine.
func NewRunner() *Runner {
	return &Runner{
		Base: arch.Hydra,
		done: lru.New[cellKey, *core.Validation](len(allCells())),
	}
}

// logf emits progress if verbose.
func (r *Runner) logf(format string, args ...any) {
	if r.Verbose != nil {
		r.logMu.Lock()
		defer r.logMu.Unlock()
		r.Verbose(format, args...)
	}
}

// storeFor returns the Runner's store, building it on first use so that
// its counters reach the Obs set by then. Racing first uses build one
// store each and keep whichever was published first.
func (r *Runner) storeFor() *core.Store {
	if st := r.store.Load(); st != nil {
		return st
	}
	r.store.CompareAndSwap(nil, core.NewStore(core.StoreConfig{Obs: r.Obs}))
	return r.store.Load()
}

// errValidatePanicked is what waiters on a cell receive when its
// evaluation panicked instead of returning.
var errValidatePanicked = errors.New("figures: validation panicked")

// Validate returns (computing on first use) the validation of one
// experiment cell. Concurrent callers for the same cell share one
// computation.
func (r *Runner) Validate(target string, b nas.Benchmark, c nas.Class, ck int) (*core.Validation, error) {
	k := cellKey{target, b, c, ck}
	v, flight, leader := r.done.Lookup(k)
	if flight == nil {
		return v, nil
	}
	if !leader {
		return flight.Wait(context.TODO())
	}
	err := errValidatePanicked
	defer func() { r.done.Finish(k, v, err) }()
	v, err = r.validate(k)
	return v, err
}

// validate evaluates one cell: core's preparation step through the
// Runner's store, then the projection and the measured run on the target.
func (r *Runner) validate(k cellKey) (*core.Validation, error) {
	sp := r.Obs.Child(fmt.Sprintf("figures.cell.%s|%s|%c|%d", k.target, k.bench, k.class, k.ck))
	defer sp.End()
	start := time.Now()
	base, err := arch.Get(r.Base)
	if err != nil {
		return nil, err
	}
	tgt, err := arch.Get(k.target)
	if err != nil {
		return nil, err
	}
	r.logf("projecting %s.%c@%d onto %s and validating", k.bench, k.class, k.ck, k.target)
	p, a, err := core.Prepare(context.TODO(), base, tgt, k.bench, k.class, k.ck,
		core.Options{Workers: r.Workers, Obs: sp, Store: r.storeFor()})
	if err != nil {
		return nil, err
	}
	v, err := p.Validate(a, k.ck)
	if err == nil && sp.Enabled() {
		sp.Count("figures.cells", 1)
		sp.Observe("figures.cell_seconds", time.Since(start).Seconds())
	}
	return v, err
}

// cellKey identifies one experiment cell of the evaluation grid.
type cellKey struct {
	target string
	bench  nas.Benchmark
	class  nas.Class
	ck     int
}

// prewarm evaluates a set of cells on the Runner's shared worker pool,
// stopping at the first error. Afterwards every cell is cached, so callers
// can assemble output serially in any fixed order.
func (r *Runner) prewarm(cells []cellKey) error {
	return par.ForEachW(par.Workers(r.Workers), len(cells), func(_, i int) error {
		k := cells[i]
		_, err := r.Validate(k.target, k.bench, k.class, k.ck)
		return err
	})
}

// benchCells is the evaluation grid of one (benchmark, target) figure.
func benchCells(b nas.Benchmark, target string) []cellKey {
	var cells []cellKey
	for _, ck := range nas.PaperRankCounts(b) {
		for _, class := range nas.Classes() {
			cells = append(cells, cellKey{target, b, class, ck})
		}
	}
	return cells
}

// allCells is the full §4 grid in paper order: each (benchmark, target)
// figure's cells once.
func allCells() []cellKey {
	var cells []cellKey
	for _, target := range Targets() {
		for _, b := range nas.Benchmarks() {
			cells = append(cells, benchCells(b, target)...)
		}
	}
	return cells
}

// abs returns |x|.
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// cell converts a validation into a figure cell.
func cell(v *core.Validation, ck int, class nas.Class) Cell {
	return Cell{
		Ck:             ck,
		Class:          class,
		P2PNB:          abs(v.ErrByClass[mpi.ClassP2PNB]),
		P2PB:           abs(v.ErrByClass[mpi.ClassP2PB]),
		Collectives:    abs(v.ErrByClass[mpi.ClassCollective]),
		OverallComm:    abs(v.ErrComm),
		Computation:    abs(v.ErrCompute),
		Combined:       abs(v.ErrCombined),
		CombinedSigned: v.ErrCombined,
	}
}

// BenchFigure regenerates the figure for a benchmark on one target:
// Figures 3–5 (BT), 7–9 (SP), or one system's bars of Figure 6 (LU). The
// figure's cells are evaluated on the shared worker pool and assembled in
// the paper's (core count, class) order.
func (r *Runner) BenchFigure(b nas.Benchmark, target string) (*Figure, error) {
	tgt, err := arch.Get(target)
	if err != nil {
		return nil, err
	}
	if err := r.prewarm(benchCells(b, target)); err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     FigureID(b, target),
		Title:  fmt.Sprintf("%s Results on %s", b, tgt.FullName),
		Bench:  b,
		Target: target,
	}
	for _, ck := range nas.PaperRankCounts(b) {
		for _, class := range nas.Classes() {
			v, err := r.Validate(target, b, class, ck)
			if err != nil {
				return nil, err
			}
			f.Cells = append(f.Cells, cell(v, ck, class))
		}
	}
	return f, nil
}

// luCells is Figure 6's grid: LU-MZ at 16 ranks on every target.
func luCells() []cellKey {
	var cells []cellKey
	for _, target := range Targets() {
		for _, class := range nas.Classes() {
			cells = append(cells, cellKey{target, nas.LU, class, 16})
		}
	}
	return cells
}

// LUFigure regenerates Figure 6: LU-MZ across all three systems.
func (r *Runner) LUFigure() (*Figure, error) {
	if err := r.prewarm(luCells()); err != nil {
		return nil, err
	}
	f := &Figure{ID: "fig6", Title: "LU Results on the three systems", Bench: nas.LU}
	for _, target := range Targets() {
		for _, class := range nas.Classes() {
			v, err := r.Validate(target, nas.LU, class, 16)
			if err != nil {
				return nil, err
			}
			c := cell(v, 16, class)
			f.Cells = append(f.Cells, c)
		}
	}
	return f, nil
}

// SystemSummary is one target's row of the paper's summary statistics.
type SystemSummary struct {
	Target  string
	MeanAbs float64 // average |combined error| %
	StdDev  float64
	MaxAbs  float64
	Cells   int
}

// Summary is the §4 bottom line.
type Summary struct {
	PerSystem []SystemSummary
	// OverallMean is the grand average |combined error|.
	OverallMean float64
	// OverProjectedPct is the share of projections above the measured
	// runtime (the paper reports 54 %).
	OverProjectedPct float64
}

// Summarize computes the paper's summary statistics over every experiment
// cell (all benchmarks, classes, core counts, targets). Cells are
// evaluated on the shared worker pool; the statistics are then accumulated
// in the fixed grid order, so the floating-point results are independent
// of scheduling.
func (r *Runner) Summarize() (*Summary, error) {
	if err := r.prewarm(allCells()); err != nil {
		return nil, err
	}
	s := &Summary{}
	var all []float64
	var over, total int
	for _, target := range Targets() {
		var errs []float64
		for _, b := range nas.Benchmarks() {
			for _, class := range nas.Classes() {
				for _, ck := range nas.PaperRankCounts(b) {
					v, err := r.Validate(target, b, class, ck)
					if err != nil {
						return nil, err
					}
					errs = append(errs, abs(v.ErrCombined))
					all = append(all, abs(v.ErrCombined))
					total++
					if v.ErrCombined > 0 {
						over++
					}
				}
			}
		}
		s.PerSystem = append(s.PerSystem, SystemSummary{
			Target:  target,
			MeanAbs: stats.Mean(errs),
			StdDev:  stats.StdDev(errs),
			MaxAbs:  stats.Max(errs),
			Cells:   len(errs),
		})
	}
	s.OverallMean = stats.Mean(all)
	s.OverProjectedPct = 100 * float64(over) / float64(total)
	return s, nil
}

// Table1Row is one row of the paper's Table 1: a benchmark's communication
// character on the base system between the smallest and largest task
// counts.
type Table1Row struct {
	Bench nas.Benchmark
	Class nas.Class

	// Percent of execution time, at the min and max task counts.
	CommMin, CommMax       float64
	MultiSRMin, MultiSRMax float64 // multi-Sendrecv (P2P-NB) share
	ReduceMin, ReduceMax   float64
	BcastMin, BcastMax     float64
}

// Table1 regenerates the paper's Table 1 on the base machine. A benchmark
// the paper runs at one task count (LU-MZ) is profiled there once.
func (r *Runner) Table1() ([]Table1Row, error) {
	base, err := arch.Get(r.Base)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, b := range nas.Benchmarks() {
		for _, class := range nas.Classes() {
			counts := nas.PaperRankCounts(b)
			lo, hi := counts[0], counts[len(counts)-1]
			r.logf("Table 1: profiling %s.%c at %d and %d tasks", b, class, lo, hi)
			row := Table1Row{Bench: b, Class: class}
			var res *nas.RunResult
			for i, ranks := range []int{lo, hi} {
				if i == 0 || hi != lo {
					if res, err = nas.Run(nas.Config{Bench: b, Class: class, Ranks: ranks}, base); err != nil {
						return nil, err
					}
				}
				pf := res.Profile
				comm := 100 * pf.CommFraction()
				msr := pf.RoutineShare(mpi.RoutineIsend) +
					pf.RoutineShare(mpi.RoutineIrecv) +
					pf.RoutineShare(mpi.RoutineWaitall)
				red := pf.RoutineShare(mpi.RoutineReduce)
				bc := pf.RoutineShare(mpi.RoutineBcast)
				if i == 0 {
					row.CommMin, row.MultiSRMin, row.ReduceMin, row.BcastMin = comm, msr, red, bc
				} else {
					row.CommMax, row.MultiSRMax, row.ReduceMax, row.BcastMax = comm, msr, red, bc
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
