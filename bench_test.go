package swapp

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=.) and measures the communication and
// scaling-model ablations DESIGN.md calls out (the compute ones are
// internal/core's). Scientific outcomes (error percentages) are attached to each benchmark
// as custom metrics, so one run both exercises the code paths and reports the
// reproduction numbers. Timings have one entry point, `go run ./bench`: the
// engine's, the simulator's and the matcher's are its walk.*, des.handoff_ns
// and mpi.sendrecv_ns.
//
// The expensive artifacts — benchmark pipelines, app characterisations,
// validations — are computed once per process in untimed setup and shared.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/imb"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/units"
)

// --- shared fixtures -------------------------------------------------------

var (
	runnerOnce sync.Once
	runner     *figures.Runner
)

// evalRunner returns the process-wide evaluation runner.
func evalRunner() *figures.Runner {
	runnerOnce.Do(func() { runner = figures.NewRunner() })
	return runner
}

// figCache memoises regenerated figures by id.
var (
	figMu    sync.Mutex
	figCache = map[string]*figures.Figure{}
)

func figureByNumber(b *testing.B, n int) *figures.Figure {
	b.Helper()
	figMu.Lock()
	defer figMu.Unlock()
	id := fmt.Sprintf("fig%d", n)
	if f, ok := figCache[id]; ok {
		return f
	}
	r := evalRunner()
	var f *figures.Figure
	var err error
	switch n {
	case 3:
		f, err = r.BenchFigure(nas.BT, arch.BlueGene)
	case 4:
		f, err = r.BenchFigure(nas.BT, arch.Power6)
	case 5:
		f, err = r.BenchFigure(nas.BT, arch.Westmere)
	case 6:
		f, err = r.LUFigure()
	case 7:
		f, err = r.BenchFigure(nas.SP, arch.BlueGene)
	case 8:
		f, err = r.BenchFigure(nas.SP, arch.Power6)
	case 9:
		f, err = r.BenchFigure(nas.SP, arch.Westmere)
	}
	if err != nil {
		b.Fatal(err)
	}
	figCache[id] = f
	return f
}

// benchFigure regenerates figure n in setup, then times rendering and
// reports the figure's scientific outcome as metrics.
func benchFigure(b *testing.B, n int) {
	f := figureByNumber(b, n)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(report.Figure(f))
	}
	_ = sink
	b.ReportMetric(f.MeanCombined(), "mean|err|%")
}

// --- Tables and Figures ------------------------------------------------------

func BenchmarkTable2(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(report.Table2())
	}
	_ = sink
}

func BenchmarkTable1(b *testing.B) {
	// One representative Table 1 measurement per iteration: the LU-MZ
	// class C profile on the base machine.
	base := arch.MustGet(arch.Hydra)
	var comm float64
	for i := 0; i < b.N; i++ {
		res, err := nas.Run(nas.Config{Bench: nas.LU, Class: nas.ClassC, Ranks: 16}, base)
		if err != nil {
			b.Fatal(err)
		}
		comm = 100 * res.Profile.CommFraction()
	}
	b.ReportMetric(comm, "comm%")
}

func BenchmarkFig3(b *testing.B) { benchFigure(b, 3) }
func BenchmarkFig4(b *testing.B) { benchFigure(b, 4) }
func BenchmarkFig5(b *testing.B) { benchFigure(b, 5) }
func BenchmarkFig6(b *testing.B) { benchFigure(b, 6) }
func BenchmarkFig7(b *testing.B) { benchFigure(b, 7) }
func BenchmarkFig8(b *testing.B) { benchFigure(b, 8) }
func BenchmarkFig9(b *testing.B) { benchFigure(b, 9) }

func BenchmarkSummary(b *testing.B) {
	// Regenerating the summary touches every experiment cell; after the
	// figure benches it is fully cached.
	r := evalRunner()
	s, err := r.Summarize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(report.Summary(s))
	}
	_ = sink
	b.ReportMetric(s.OverallMean, "overall|err|%")
	b.ReportMetric(s.OverProjectedPct, "over-projected%")
	for _, row := range s.PerSystem {
		b.ReportMetric(row.MeanAbs, row.Target+"|err|%")
	}
}

// --- §5 overhead claim --------------------------------------------------------

// overheadCases are the jobs of the §5 pairs: LU-MZ.C@16, the cheapest
// pipeline run, BT-MZ.D@16, the run whose messages wait longest unmatched
// (up to 250 on one rank), and BT-MZ.D@128, the largest profile a request
// builds.
var overheadCases = []nas.Config{
	{Bench: nas.LU, Class: nas.ClassC, Ranks: 16},
	{Bench: nas.BT, Class: nas.ClassD, Ranks: 16},
	{Bench: nas.BT, Class: nas.ClassD, Ranks: 128},
}

// benchOverhead runs each overhead case on hydra, laid out once, through
// run.
func benchOverhead(b *testing.B, run func(inst *nas.Instance, m *arch.Machine) error) {
	base := arch.MustGet(arch.Hydra)
	for _, cfg := range overheadCases {
		b.Run(fmt.Sprintf("%s@%d", cfg.Name(), cfg.Ranks), func(b *testing.B) {
			inst, err := nas.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := run(inst, base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileOverhead is one run with the profiler attached. The paper
// claims ≤0.05 % profiling overhead. In the simulator the profile costs
// zero *simulated* time by construction; this bench and its baseline,
// BenchmarkRunUnprofiled, measure the host-side cost.
func BenchmarkProfileOverhead(b *testing.B) {
	benchOverhead(b, func(inst *nas.Instance, m *arch.Machine) error {
		_, err := inst.Run(m)
		return err
	})
}

// BenchmarkRunUnprofiled is BenchmarkProfileOverhead's baseline: the
// identical job with no observer attached.
func BenchmarkRunUnprofiled(b *testing.B) {
	benchOverhead(b, func(inst *nas.Instance, m *arch.Machine) error {
		_, err := inst.RunObserved(m, nil)
		return err
	})
}

// --- Eq. 1 / multi-Sendrecv -----------------------------------------------------

func BenchmarkMultiSendrecv(b *testing.B) {
	// The Eq. 1 parameterisation sweep on the base machine at 16 ranks.
	base := arch.MustGet(arch.Hydra)
	sizes := units.Pow2Sizes(1*units.KiB, 64*units.KiB)
	var tab *imb.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = imb.Run(base, 16, sizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tab.NBOverhead()*1e6, "overhead_µs")
	b.ReportMetric(tab.InFlightIntra(16*units.KiB)*1e6, "inflight16K_µs")
}

// --- Ablations -------------------------------------------------------------------
//
// The communication and scaling-model ablations. The compute projection's
// (GA vs NNLS, rank adjustment on vs off) need the surrogate search's
// internals and run in internal/core's benchmarks.

// ablationFixture builds one (pipeline, app) case: LU-MZ class C at 16
// ranks onto POWER6.
type ablationFixture struct {
	pipe *core.Pipeline
	app  *core.AppModel
}

var (
	ablOnce sync.Once
	abl     ablationFixture
	ablErr  error
)

func ablation(b *testing.B) *ablationFixture {
	b.Helper()
	ablOnce.Do(func() {
		pipe, err := core.NewPipeline(arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6), []int{4, 8, 16})
		if err != nil {
			ablErr = err
			return
		}
		app, err := pipe.CharacterizeApp(nas.LU, nas.ClassC, []int{4, 8, 16})
		if err != nil {
			ablErr = err
			return
		}
		abl.pipe, abl.app = pipe, app
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return &abl
}

func BenchmarkAblationWaitTime(b *testing.B) {
	// Communication projection with the WaitTime model on vs off
	// (off = project transfer only, drop the wait component).
	fx := ablation(b)
	r := evalRunner()
	v, err := r.Validate(arch.Power6, nas.LU, nas.ClassC, 16)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := fx.pipe.ProjectCompute(fx.app, 16)
	if err != nil {
		b.Fatal(err)
	}
	var comm *core.CommProjection
	for i := 0; i < b.N; i++ {
		comm, err = fx.pipe.ProjectComm(fx.app, 16, cp.SpeedupRatio())
		if err != nil {
			b.Fatal(err)
		}
	}
	withWait := comm.TargetTotal()
	var withoutWait units.Seconds
	for _, rp := range comm.Routines {
		withoutWait += rp.TargetTransfer
	}
	measured := v.MeasuredComm
	errOf := func(p units.Seconds) float64 {
		e := 100 * (p - measured) / measured
		if e < 0 {
			return -e
		}
		return e
	}
	b.ReportMetric(errOf(withWait), "with_wait|err|%")
	b.ReportMetric(errOf(withoutWait), "without_wait|err|%")
}

func BenchmarkAblationScalingModel(b *testing.B) {
	// CCSM γ on vs off when projecting an unprofiled core count (12,
	// characterised at 8): γ-off pretends per-task compute is flat.
	fx := ablation(b)
	var proj *core.Projection
	var err error
	for i := 0; i < b.N; i++ {
		proj, err = fx.pipe.Project(fx.app, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	res, err := nas.Run(nas.Config{Bench: nas.LU, Class: nas.ClassC, Ranks: 12}, arch.MustGet(arch.Power6))
	if err != nil {
		b.Fatal(err)
	}
	measured := res.Profile.MeanCompute()
	errOf := func(p units.Seconds) float64 {
		e := 100 * (p - measured) / measured
		if e < 0 {
			return -e
		}
		return e
	}
	b.ReportMetric(errOf(proj.ComputeTime), "with_gamma|err|%")
	b.ReportMetric(errOf(proj.ComputeTime/proj.Gamma), "without_gamma|err|%")
}
