package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/quality"
	"repro/internal/spec"
)

// defectCodes extracts the codes of a report for membership checks.
func defectCodes(r *quality.Report) map[quality.Code]bool {
	out := map[quality.Code]bool{}
	for _, d := range r.Defects() {
		out[d.Code] = true
	}
	return out
}

// TestDroppedRoutineBecomesWait proves the unpriceable-routine fallback: a
// profiled routine absent from the IMB tables no longer fails the
// projection; its elapsed is treated as pure WaitTime and a major
// DroppedMPIRoutine defect is recorded.
func TestDroppedRoutineBecomesWait(t *testing.T) {
	const ranks = 4
	const elapsed = 2e-3
	p := synthPipeline(ranks, 1e-4, 5e-5) // tables price Bcast only
	app := synthApp(mpi.RoutineAllreduce, ranks, elapsed)

	rec := quality.NewReport()
	const computeRatio = 0.5
	comm, err := p.projectComm(nil, app, ranks, computeRatio, rec)
	if err != nil {
		t.Fatalf("unpriceable routine must degrade, not fail: %v", err)
	}
	if len(comm.Routines) != 1 {
		t.Fatalf("got %d routine projections, want 1", len(comm.Routines))
	}
	rp := comm.Routines[0]
	if rp.BaseTransfer != 0 || rp.TargetTransfer != 0 {
		t.Errorf("dropped routine must carry zero transfer, got %+v", rp)
	}
	if rp.BaseWait != elapsed {
		t.Errorf("dropped routine wait = %v, want full elapsed %v", rp.BaseWait, elapsed)
	}
	if want := elapsed * comm.WaitScale; math.Abs(rp.TargetWait-want) > 1e-15 {
		t.Errorf("target wait = %v, want elapsed x WaitScale = %v", rp.TargetWait, want)
	}
	codes := defectCodes(rec)
	if !codes[quality.DroppedMPIRoutine] {
		t.Errorf("missing DroppedMPIRoutine defect, got %v", rec.Defects())
	}
	if g := rec.ComponentGrade(quality.Comm); g != quality.GradeC {
		t.Errorf("comm grade = %s, want C (major fallback)", g)
	}
}

// TestGridGapRecordsDefect proves truncated IMB grids degrade instead of
// failing: lookups over the missing tail extrapolate from the surviving
// samples and record an IMBGridGap defect.
func TestGridGapRecordsDefect(t *testing.T) {
	const ranks = 4
	p := synthPipeline(ranks, 1e-4, 5e-5)
	// Knock out the target sample at the profiled 1 KiB size; the declared
	// grid keeps it, so the lookup bridges to the surviving 4 KiB sample.
	delete(p.IMBTarget[ranks].PerOp[mpi.RoutineBcast], 1024)
	app := synthApp(mpi.RoutineBcast, ranks, 1e-3)

	rec := quality.NewReport()
	comm, err := p.projectComm(nil, app, ranks, 1, rec)
	if err != nil {
		t.Fatalf("grid gap must degrade, not fail: %v", err)
	}
	if !defectCodes(rec)[quality.IMBGridGap] {
		t.Errorf("missing IMBGridGap defect, got %v", rec.Defects())
	}
	if comm.TargetTotal() < 0 {
		t.Errorf("degraded projection went negative: %v", comm.TargetTotal())
	}
}

// TestUnusableComputeRatioIsAnError: a compute ratio that is not finite
// and positive leaves the wait-scale blend nothing to scale by, so the
// communication projection refuses it rather than carrying base WaitTime
// over unscaled.
func TestUnusableComputeRatioIsAnError(t *testing.T) {
	const ranks = 4
	p := synthPipeline(ranks, 1e-4, 5e-5)
	app := synthApp(mpi.RoutineBcast, ranks, 1e-3)
	for _, ratio := range []float64{math.NaN(), math.Inf(1), 0, -2} {
		rec := quality.NewReport()
		comm, err := p.projectComm(nil, app, ranks, ratio, rec)
		if err == nil || !strings.Contains(err.Error(), "is not finite and positive") {
			t.Errorf("ratio %v: comm %+v, err %v; want an error", ratio, comm, err)
		}
		if !rec.Empty() {
			t.Errorf("ratio %v: recorded %v", ratio, rec.Defects())
		}
	}
}

// TestUnusableSpecRatioNamesTheBenchmark: a target SPEC row whose runtime
// is positive and finite can still leave the benchmark no usable speedup —
// 5e-324 s over the base's hundreds of seconds underflows to 0, whose log
// turns every metric-group weight NaN, so no GA member finds a surrogate.
// The projection refuses the row by name, before the search, naming both
// machines, instead of failing in the GA with nothing to point at.
func TestUnusableSpecRatioNamesTheBenchmark(t *testing.T) {
	hydra, p6 := arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6)
	pipe, app, err := Prepare(context.Background(), hydra, p6, nas.LU, nas.ClassC, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tiny := map[string]spec.Result{}
	for name, r := range pipe.SpecTarget {
		r.ST.Runtime = 5e-324
		tiny[name] = r
	}

	// The mechanism: the ratio underflows and the group weights go NaN.
	s, err := pipe.surrogateSpaceAt(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	name := s.names[0]
	if ratio := tiny[name].ST.Runtime / pipe.SpecBase[name].ST.Runtime; ratio != 0 {
		t.Fatalf("%s: ratio %g, want an underflow to 0", name, ratio)
	}
	for g, w := range adjustWeightsToTarget(groupContributions(&s.cp.ST), s, pipe.SpecBase, tiny) {
		if !math.IsNaN(w) {
			t.Errorf("group %d weight %v on the underflowing pool, want NaN", g+1, w)
		}
	}

	pipe.SpecTarget = tiny
	_, err = pipe.Project(app, 16)
	if err == nil {
		t.Fatal("a pool whose runtime ratios underflow projected")
	}
	for _, frag := range []string{"SPEC " + name + ":", hydra.Name, p6.Name, "not a finite positive ratio"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
}

// TestAnalyzeDataSpecIntersection pins the pool-shrink defect: base
// benchmarks absent on the target are recorded, minor while at least 75%
// of the pool survives and major below that.
func TestAnalyzeDataSpecIntersection(t *testing.T) {
	mk := func(names ...string) map[string]spec.Result {
		out := map[string]spec.Result{}
		for _, n := range names {
			out[n] = spec.Result{}
		}
		return out
	}
	p := &Pipeline{
		SpecBase:   mk("a", "b", "c", "d"),
		SpecTarget: mk("a", "b", "c"),
	}
	ds := p.analyzeData(nil)
	if len(ds) != 1 || ds[0].Code != quality.MissingSpecBench || ds[0].Severity != quality.Minor {
		t.Errorf("1 of 4 missing: defects = %v, want one minor MissingSpecBench", ds)
	}
	if !strings.Contains(ds[0].Detail, "1/4") {
		t.Errorf("detail %q does not report the shrink", ds[0].Detail)
	}

	p.SpecTarget = mk("a", "b")
	ds = p.analyzeData(nil)
	if len(ds) != 1 || ds[0].Severity != quality.Major {
		t.Errorf("2 of 4 missing: defects = %v, want one major MissingSpecBench", ds)
	}

	// Clean data records nothing at all.
	p.SpecTarget = p.SpecBase
	if ds := p.analyzeData(nil); len(ds) != 0 {
		t.Errorf("clean pool recorded %v", ds)
	}
}

// TestAnalyzeDataIMBCountMismatch: a table one side holds at a count the
// other lacks is not a defect. newPipeline gathers every count it projects
// at on both sides, so such a table is one no projection reads, and grading
// a projection down for it would flag an answer nothing degraded.
func TestAnalyzeDataIMBCountMismatch(t *testing.T) {
	p := &Pipeline{
		IMBBase:   map[int]*imb.Table{4: synthTable("base", 4, 1), 8: synthTable("base", 8, 1)},
		IMBTarget: map[int]*imb.Table{4: synthTable("tgt", 4, 1), 16: synthTable("tgt", 16, 1)},
	}
	if ds := p.analyzeData(nil); len(ds) != 0 {
		t.Errorf("one-sided IMB counts recorded %v, want nothing", ds)
	}
}

// TestPipelineDataSkipsRuns proves Options.Data substitutes supplied
// benchmark data without running the suites, carrying loader defects into
// the pipeline ledger.
func TestPipelineDataSkipsRuns(t *testing.T) {
	base := arch.MustGet(arch.Hydra)
	tgt := arch.MustGet(arch.Power6)
	loaderDefect := quality.Defect{
		Code: quality.IMBSinglePointGrid, Component: quality.Data,
		Severity: quality.Major, Detail: "fixture",
	}
	data := &PipelineData{
		SpecBase:   map[string]spec.Result{"x": {}, "y": {}},
		SpecTarget: map[string]spec.Result{"x": {}, "y": {}},
		IMBBase:    map[int]*imb.Table{4: synthTable(base.Name, 4, 1e-4)},
		IMBTarget:  map[int]*imb.Table{4: synthTable(tgt.Name, 4, 5e-5)},
		Defects:    []quality.Defect{loaderDefect},
	}
	p, err := NewPipelineCtx(context.Background(), base, tgt, []int{4}, Options{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	// Supplied data used verbatim: the real SPEC suite has 29 benchmarks,
	// the fake one 2 — if the suite had run, the map would be replaced.
	if len(p.SpecBase) != 2 || len(p.SpecTarget) != 2 {
		t.Errorf("supplied SPEC data not used: %d/%d benchmarks", len(p.SpecBase), len(p.SpecTarget))
	}
	if p.IMBBase[4] != data.IMBBase[4] {
		t.Error("supplied IMB table not used")
	}
	found := false
	for _, d := range p.Defects {
		if d == loaderDefect {
			found = true
		}
	}
	if !found {
		t.Errorf("loader defect not inherited: %v", p.Defects)
	}
}

// TestGridGapHelpers pins the imb coverage helpers the defect recording is
// built on (full-grid lookups never gap; truncated grids gap above the
// cut).
func TestGridGapHelpers(t *testing.T) {
	tb := synthTable("m", 4, 1e-4) // Bcast at sizes 1024 and 4096
	if tb.CoverageGap(mpi.RoutineBcast, 2048) {
		t.Error("fully covered grid must never gap (interior)")
	}
	if tb.CoverageGap(mpi.RoutineBcast, 1<<30) {
		t.Error("fully covered grid must never gap (clamped above)")
	}
	cut := synthTable("m", 4, 1e-4)
	delete(cut.PerOp[mpi.RoutineBcast], 4096) // the sweep stopped at 1 KiB
	if !cut.CoverageGap(mpi.RoutineBcast, 2048) {
		t.Error("truncated grid must gap above the cut")
	}
	if cut.CoverageGap(mpi.RoutineBcast, 1024) {
		t.Error("exactly-covered size must not gap")
	}
	if tb.CoverageGap(mpi.RoutineSendrecv, 1024) {
		t.Error("absent routine is a missing-routine case, not a grid gap")
	}
}

// TestEmptyAppModelIsAnError: a hand-built AppModel (examples/customapp
// builds one) with no profiled core count is an error naming the app from
// every projection entry point and from the CCSM fit, never an
// index-out-of-range panic; the ACSM fit reports no transition.
func TestEmptyAppModelIsAnError(t *testing.T) {
	p := synthPipeline(4, 1e-4, 5e-5)
	app := &AppModel{Bench: "ocean", Class: nas.ClassC}
	for name, run := range map[string]func() error{
		"Project":    func() error { _, err := p.Project(app, 16); return err },
		"ProjectCtx": func() error { _, err := p.ProjectCtx(context.Background(), app, 16); return err },
		"Validate":   func() error { _, err := p.Validate(app, 16); return err },
		"FitCCSM":    func() error { _, err := FitCCSM(app); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "ocean.C has no profiled core counts") {
			t.Errorf("%s on an app with no counts: err = %v, want one naming ocean.C", name, err)
		}
	}
	if a := FitACSM(app); a.Valid {
		t.Errorf("FitACSM on an app with no counts = %+v, want invalid", a)
	}
}
