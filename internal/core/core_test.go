package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/mpiprof"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/quality"
)

// Shared pipeline fixtures: building one costs a few seconds (SPEC suites
// on two machines + IMB sweeps), so tests share them.
var (
	pipeOnce  sync.Once
	pipeP6    *Pipeline
	pipeBG    *Pipeline
	pipeErr   error
	appLUOnce sync.Once
	appLU     *AppModel
	appLUErr  error
)

func sharedPipes(t testing.TB) (*Pipeline, *Pipeline) {
	t.Helper()
	pipeOnce.Do(func() {
		base := arch.MustGet(arch.Hydra)
		pipeP6, pipeErr = NewPipeline(base, arch.MustGet(arch.Power6), []int{4, 8, 16})
		if pipeErr != nil {
			return
		}
		pipeBG, pipeErr = NewPipeline(base, arch.MustGet(arch.BlueGene), []int{4, 8, 16})
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipeP6, pipeBG
}

func sharedLU(t testing.TB) *AppModel {
	t.Helper()
	p, _ := sharedPipes(t)
	appLUOnce.Do(func() {
		appLU, appLUErr = p.CharacterizeApp(nas.LU, nas.ClassC, []int{4, 8, 16})
	})
	if appLUErr != nil {
		t.Fatal(appLUErr)
	}
	return appLU
}

func TestNewPipelineGathersData(t *testing.T) {
	p, _ := sharedPipes(t)
	if len(p.SpecBase) != 29 || len(p.SpecTarget) != 29 {
		t.Fatalf("SPEC data incomplete: %d base, %d target", len(p.SpecBase), len(p.SpecTarget))
	}
	for _, c := range []int{4, 8, 16} {
		if p.IMBBase[c] == nil || p.IMBTarget[c] == nil {
			t.Errorf("IMB tables missing at %d ranks", c)
		}
	}
	// A count the pipeline was not built for is an error, not the
	// nearest count's tables; so is a count one side lacks.
	if bt, tt, err := p.imbAt(16); err != nil || bt.Ranks != 16 || tt.Ranks != 16 {
		t.Errorf("imbAt(16) = %v, %v, %v", bt, tt, err)
	}
	if _, _, err := p.imbAt(999); err == nil || !strings.Contains(err.Error(), "no IMB tables for 999 ranks") {
		t.Errorf("imbAt(999) err = %v, want no IMB tables for 999 ranks", err)
	}
	oneSided := &Pipeline{IMBBase: p.IMBBase, IMBTarget: map[int]*imb.Table{16: p.IMBTarget[16]}}
	if _, _, err := oneSided.imbAt(8); err == nil {
		t.Error("imbAt on a count only the base holds must error")
	}
}

func TestCharacterizeApp(t *testing.T) {
	app := sharedLU(t)
	if app.Name() != "LU-MZ.C" {
		t.Errorf("app name = %q", app.Name())
	}
	for _, c := range []int{4, 8, 16} {
		if app.Profiles[c] == nil {
			t.Fatalf("missing profile at %d", c)
		}
		cp := app.Counters[c]
		if cp == nil || cp.ST.Runtime <= 0 {
			t.Fatalf("missing counters at %d", c)
		}
		if n := len(cp.ST.Vector()) + len(cp.SMT.Vector()); n != 26 {
			t.Fatalf("character vector length %d", n)
		}
	}
	// Strong scaling: per-task compute shrinks with core count.
	if app.baseComputeAt(16) >= app.baseComputeAt(4) {
		t.Error("per-task compute must shrink under strong scaling")
	}
	if app.nearestCount(12) != 8 && app.nearestCount(12) != 16 {
		t.Errorf("nearestCount(12) = %d", app.nearestCount(12))
	}
	if app.nearestCount(16) != 16 {
		t.Error("exact count must be preferred")
	}
	if app.nearestCount(1) != 4 {
		t.Errorf("nearestCount(1) = %d, want the smallest profiled count, 4", app.nearestCount(1))
	}
}

func TestProjectCompute(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	cp, err := p.ProjectCompute(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Surrogate) == 0 || len(cp.Surrogate) > surrogateMaxSize {
		t.Fatalf("surrogate size %d out of bounds", len(cp.Surrogate))
	}
	var wsum float64
	for _, term := range cp.Surrogate {
		if term.Weight <= 0 {
			t.Errorf("non-positive coefficient for %s", term.Bench)
		}
		if _, ok := p.SpecBase[term.Bench]; !ok {
			t.Errorf("surrogate member %s not in the pool", term.Bench)
		}
		wsum += term.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("coefficients must sum to 1, got %v", wsum)
	}
	if cp.TargetTime <= 0 || cp.BaseTime <= 0 {
		t.Error("projection must be positive")
	}
	// POWER6 at 4.7 GHz should run LU's compute faster per task than the
	// 1.9 GHz base — the ratio must at least be well under 1.5.
	if cp.SpeedupRatio() > 1.5 {
		t.Errorf("implausible P6 ratio %v", cp.SpeedupRatio())
	}
	// Ranking covers each group exactly once.
	seen := map[int]bool{}
	for _, g := range cp.Ranking {
		if g < 1 || g > 6 || seen[g] {
			t.Fatalf("bad ranking %v", cp.Ranking)
		}
		seen[g] = true
	}
	if _, err := p.ProjectCompute(app, 999); err == nil {
		t.Error("unknown count must error")
	}
}

func TestProjectComputeDeterministic(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	a, err := p.ProjectCompute(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ProjectCompute(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.TargetTime != b.TargetTime || a.Fitness != b.Fitness {
		t.Error("compute projection must be deterministic")
	}
}

func TestCCSM(t *testing.T) {
	app := sharedLU(t)
	m, err := FitCCSM(app)
	if err != nil {
		t.Fatal(err)
	}
	// Strong scaling: negative exponent near -1.
	if m.P >= 0 || m.P < -1.5 {
		t.Errorf("CCSM exponent %v implausible", m.P)
	}
	if g := m.Gamma(16, 16); g != 1 {
		t.Errorf("Gamma(16,16) = %v", g)
	}
	// Halving core count should roughly double per-task time.
	g := m.Gamma(16, 8)
	if g < 1.5 || g > 2.5 {
		t.Errorf("Gamma(16,8) = %v, want ≈2", g)
	}
	if m.TimeAt(8) <= m.TimeAt(16) {
		t.Error("per-task time must grow at lower counts")
	}
}

func TestACSM(t *testing.T) {
	app := sharedLU(t)
	a := FitACSM(app)
	// Whatever the trend, the result must be well-formed.
	if a.Valid && a.Ch <= 0 {
		t.Errorf("valid ACSM with non-positive Ch %v", a.Ch)
	}
	if a.HyperScalesBetween(4, 4) {
		t.Error("empty interval cannot contain Ch")
	}
	// An explicitly descending synthetic model finds the crossing.
	synthetic := &AppModel{Counts: []int{4, 8, 16}, Counters: map[int]*CounterPair{}}
	for i, c := range synthetic.Counts {
		cp := &CounterPair{Ranks: c}
		cp.ST.DataFromL3 = 0.03 - 0.01*float64(i) // hits 0 at the next doubling
		synthetic.Counters[c] = cp
	}
	sa := FitACSM(synthetic)
	if !sa.Valid {
		t.Fatal("descending trend must fit")
	}
	if sa.Ch < 16 || sa.Ch > 64 {
		t.Errorf("Ch = %v, want in (16, 64)", sa.Ch)
	}
	if !sa.HyperScalesBetween(16, 128) {
		t.Error("Ch must lie between 16 and 128")
	}
}

func TestACSMAllZero(t *testing.T) {
	synthetic := &AppModel{Counts: []int{4, 8}, Counters: map[int]*CounterPair{
		4: {Ranks: 4}, 8: {Ranks: 8},
	}}
	a := FitACSM(synthetic)
	if !a.Valid || a.Ch != 4 {
		t.Errorf("already-contained footprint should give Ch = first count, got %+v", a)
	}
}

func TestProjectComm(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	comm, err := p.ProjectComm(app, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if comm.WaitScale <= 0 {
		t.Errorf("wait scale %v", comm.WaitScale)
	}
	if comm.TargetTotal() <= 0 || comm.BaseTotal() <= 0 {
		t.Error("communication projection must be positive")
	}
	seen := map[mpi.Routine]bool{}
	for _, rp := range comm.Routines {
		if seen[rp.Routine] {
			t.Errorf("duplicate routine %s", rp.Routine)
		}
		seen[rp.Routine] = true
		// Eq. 4: base elapsed = transfer + wait, exactly, after capping.
		if math.Abs(rp.BaseElapsed-(rp.BaseTransfer+rp.BaseWait)) > 1e-12 {
			t.Errorf("%s: Eq. 4 decomposition broken", rp.Routine)
		}
		if rp.BaseWait < 0 || rp.TargetTransfer < 0 || rp.TargetWait < 0 {
			t.Errorf("%s: negative component", rp.Routine)
		}
		if rp.TargetElapsed() != rp.TargetTransfer+rp.TargetWait {
			t.Errorf("%s: Eq. 5 broken", rp.Routine)
		}
	}
	// The boundary exchange must be present.
	if !seen[mpi.RoutineWaitall] || !seen[mpi.RoutineIsend] {
		t.Error("P2P-NB routines missing from the projection")
	}
	byClass := comm.TargetByClass()
	var sum float64
	for _, v := range byClass {
		sum += v
	}
	if math.Abs(sum-comm.TargetTotal()) > 1e-12 {
		t.Error("class decomposition must sum to the total")
	}
	if _, err := p.ProjectComm(app, 999, 0.5); err == nil {
		t.Error("unknown count must error")
	}
}

func TestWaitScaleBlend(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	slow, err := p.ProjectComm(app, 16, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := p.ProjectComm(app, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if slow.WaitScale <= fast.WaitScale {
		t.Error("a slower target must scale WaitTime up relative to a faster one")
	}
}

func TestProjectCombined(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	proj, err := p.Project(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Ck != 16 || proj.App != "LU-MZ.C" || proj.Target != arch.Power6 {
		t.Error("projection labels wrong")
	}
	if proj.Gamma != 1 {
		t.Errorf("profiled count must give γ = 1, got %v", proj.Gamma)
	}
	if math.Abs(proj.Total-(proj.ComputeTime+proj.CommTime)) > 1e-12 {
		t.Error("combined projection must be the sum of the components")
	}
}

func TestProjectUnprofiledCountUsesCCSM(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	proj, err := p.Project(app, 12) // not profiled: between 8 and 16
	if err != nil {
		t.Fatal(err)
	}
	if proj.Gamma == 1 {
		t.Error("unprofiled count must engage the CCSM γ")
	}
	// Sanity: per-task compute at 12 ranks sits between the 8- and
	// 16-rank projections.
	at8, err := p.Project(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	at16, err := p.Project(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !(proj.ComputeTime < at8.ComputeTime && proj.ComputeTime > at16.ComputeTime) {
		t.Errorf("compute at 12 (%v) must sit between 8 (%v) and 16 (%v)",
			proj.ComputeTime, at8.ComputeTime, at16.ComputeTime)
	}
}

func TestValidateProducesErrors(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	v, err := p.Validate(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	if v.MeasuredTotal <= 0 || v.MeasuredCompute <= 0 || v.MeasuredComm <= 0 {
		t.Fatal("measured side incomplete")
	}
	// The reproduction's whole point: projecting LU onto POWER6 must land
	// within the paper's error regime (they report ≤15 %; allow slack).
	if math.Abs(v.ErrCombined) > 25 {
		t.Errorf("LU-MZ on POWER6 projects at %.1f%% error; expected the paper's regime", math.Abs(v.ErrCombined))
	}
	if _, ok := v.ErrByClass[mpi.ClassP2PNB]; !ok {
		t.Error("per-class errors missing")
	}
}

func TestPctErr(t *testing.T) {
	if pctErr(110, 100) != 10 || pctErr(90, 100) != -10 {
		t.Error("pctErr wrong")
	}
	if pctErr(0, 0) != 0 {
		t.Error("0/0 must be 0")
	}
	if pctErr(5, 0) != 100 {
		t.Error("nonzero/0 convention broken")
	}
}

// waitallEntry profiles `calls` Waitall calls of `count` requests on rank
// 0 of a 64-rank job, each waiting on peers, and returns the one size
// entry they make.
func waitallEntry(t *testing.T, calls, count int, peers []int) *mpiprof.SizeEntry {
	t.Helper()
	p := mpiprof.New(64)
	for i := 0; i < calls; i++ {
		p.OnRoutine(0, mpi.RoutineEvent{Routine: mpi.RoutineWaitall, Bytes: 1024, Count: count, Elapsed: 1e-3, Peers: peers})
	}
	sizes := p.Profile("synthetic", "synthetic", 1).RoutineAggregate(mpi.RoutineWaitall).Sizes
	if len(sizes) != 1 {
		t.Fatalf("want one size entry, got %+v", sizes)
	}
	return &sizes[0]
}

func TestSplitX(t *testing.T) {
	// 50 calls, 400 messages at offset 1 (same node for cpn≥2) and 200 at
	// offset 16: each call waits on 8 requests with rank 1 and 4 with rank 16.
	se := waitallEntry(t, 50, 12, []int{1, 1, 1, 1, 1, 1, 1, 1, 16, 16, 16, 16})
	xi, xe := splitX(se, 16)
	// offset1: frac 15/16 intra; offset16: 0 intra.
	wantIntra := (400.0 * 15 / 16) / 50 / 2
	wantInter := (400.0*1/16 + 200) / 50 / 2
	if math.Abs(xi-wantIntra) > 1e-9 || math.Abs(xe-wantInter) > 1e-9 {
		t.Errorf("splitX = (%v,%v), want (%v,%v)", xi, xe, wantIntra, wantInter)
	}
	// Wider nodes absorb the offset-16 traffic.
	xi32, xe32 := splitX(se, 32)
	if xi32 <= xi || xe32 >= xe {
		t.Error("wider nodes must increase the intra share")
	}
	// No pattern: assume everything inter.
	bare := waitallEntry(t, 10, 4, nil)
	xi0, xe0 := splitX(bare, 16)
	if xi0 != 0 || xe0 != 2 {
		t.Errorf("bare entry splitX = (%v,%v), want (0,2)", xi0, xe0)
	}
}

func TestIntraFraction(t *testing.T) {
	cases := []struct {
		off, cpn int
		want     float64
	}{
		{0, 16, 1}, {16, 16, 0}, {8, 16, 0.5}, {1, 16, 15.0 / 16}, {20, 16, 0},
	}
	for _, c := range cases {
		if got := intraFraction(c.off, c.cpn); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("intraFraction(%d,%d) = %v, want %v", c.off, c.cpn, got, c.want)
		}
	}
}

func TestGroupContributionsNormalised(t *testing.T) {
	app := sharedLU(t)
	g := groupContributions(&app.Counters[16].ST)
	var sum float64
	for _, v := range g {
		if v < 0 {
			t.Errorf("negative contribution %v", g)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("contributions must normalise, got %v", sum)
	}
}

func TestCorrelation(t *testing.T) {
	if c := correlation([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", c)
	}
	if c := correlation([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", c)
	}
	if c := correlation([]float64{1, 1, 1}, []float64{1, 2, 3}); c != 0 {
		t.Errorf("degenerate correlation = %v", c)
	}
}

func TestParallelPipelineMatchesSerial(t *testing.T) {
	// The whole evaluation engine's contract: every characterisation is a
	// pure function of its (machine, workload) key, so the fan-out in
	// NewPipelineCtx, CharacterizeApp and the GA ensemble must yield
	// byte-identical data whatever the worker count.
	base := arch.MustGet(arch.Hydra)
	tgt := arch.MustGet(arch.Power6)
	counts := []int{4, 8, 16}

	serial, err := NewPipelineCtx(context.Background(), base, tgt, counts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewPipelineCtx(context.Background(), base, tgt, counts, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.SpecBase, parallel.SpecBase) {
		t.Error("SPEC base tables differ between serial and parallel gathering")
	}
	if !reflect.DeepEqual(serial.SpecTarget, parallel.SpecTarget) {
		t.Error("SPEC target tables differ between serial and parallel gathering")
	}
	if !reflect.DeepEqual(serial.IMBBase, parallel.IMBBase) {
		t.Error("IMB base tables differ between serial and parallel gathering")
	}
	if !reflect.DeepEqual(serial.IMBTarget, parallel.IMBTarget) {
		t.Error("IMB target tables differ between serial and parallel gathering")
	}

	appS, err := serial.CharacterizeApp(nas.LU, nas.ClassC, counts)
	if err != nil {
		t.Fatal(err)
	}
	appP, err := parallel.CharacterizeApp(nas.LU, nas.ClassC, counts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(appS.Counters, appP.Counters) {
		t.Error("app counters differ between serial and parallel characterisation")
	}
	if !reflect.DeepEqual(appS.Profiles, appP.Profiles) {
		t.Error("app profiles differ between serial and parallel characterisation")
	}

	cpS, err := serial.ProjectCompute(appS, 16)
	if err != nil {
		t.Fatal(err)
	}
	cpP, err := parallel.ProjectCompute(appP, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cpS.TargetTime != cpP.TargetTime || cpS.Fitness != cpP.Fitness {
		t.Errorf("compute projection differs: serial (%v, %v) vs parallel (%v, %v)",
			cpS.TargetTime, cpS.Fitness, cpP.TargetTime, cpP.Fitness)
	}
	if !reflect.DeepEqual(cpS.Surrogate, cpP.Surrogate) {
		t.Errorf("surrogates differ: %v vs %v", cpS.Surrogate, cpP.Surrogate)
	}
}

func TestNewPipelineDedupesCounts(t *testing.T) {
	base := arch.MustGet(arch.Hydra)
	tgt := arch.MustGet(arch.BlueGene)
	p, err := NewPipelineCtx(context.Background(), base, tgt, []int{8, 4, 8, 4}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.IMBBase) != 2 || len(p.IMBTarget) != 2 {
		t.Errorf("duplicate rank counts not deduped: %d/%d tables", len(p.IMBBase), len(p.IMBTarget))
	}
}

// TestGatherStartOrder pins the gather's start order (DESIGN §12): both
// SPEC suites, then each count's base and target IMB tables, largest count
// first, so the biggest table never starts last and sets the makespan. At
// Workers 1 start order is span order.
func TestGatherStartOrder(t *testing.T) {
	scope := obs.New("gather")
	if _, err := NewPipelineCtx(context.Background(), arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6),
		[]int{8, 2, 4}, Options{Workers: 1, Obs: scope}); err != nil {
		t.Fatal(err)
	}
	scope.End()
	spans := scope.Trace().Spans
	if len(spans) != 1 || !strings.HasPrefix(spans[0].Name, "core.pipeline.") {
		t.Fatalf("root children = %+v, want one core.pipeline.* span", spans)
	}
	var got []string
	for _, s := range spans[0].Spans {
		got = append(got, s.Name)
	}
	want := []string{"spec.hydra", "spec.power6-575",
		"imb.hydra.8", "imb.power6-575.8", "imb.hydra.4", "imb.power6-575.4",
		"imb.hydra.2", "imb.power6-575.2"}
	if !slices.Equal(got, want) {
		t.Errorf("gather start order %v, want %v", got, want)
	}
}

func TestCharCountsFor(t *testing.T) {
	counts := charCountsFor(nas.BT, nas.ClassC, 96)
	want := map[int]bool{16: true, 32: true, 64: true, 96: true, 128: true}
	if len(counts) != len(want) {
		t.Fatalf("charCountsFor = %v", counts)
	}
	for _, c := range counts {
		if !want[c] {
			t.Fatalf("unexpected count %d in %v", c, counts)
		}
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatal("counts must be ascending")
		}
	}
	if lu := charCountsFor(nas.LU, nas.ClassC, 16); !slices.Equal(lu, []int{4, 8, 16}) {
		t.Errorf("LU-MZ counts = %v, want [4 8 16]: 16 zones, extended downward", lu)
	}

	// Every accepted count from 2 up is itself profiled, so the compute
	// projection is characterised at the requested count: the pipeline's
	// nearestCount(Ck) is Ck. Only Ck = 1 borrows a count — the smallest,
	// every profiled count being ≥ 2.
	for _, b := range nas.Benchmarks() {
		for _, c := range nas.Classes() {
			for ranks := 2; ranks <= nas.MaxRanks(b, c); ranks++ {
				if counts := charCountsFor(b, c, ranks); !slices.Contains(counts, ranks) {
					t.Fatalf("charCountsFor(%s, %c, %d) = %v, lacks the requested count", b, c, ranks, counts)
				}
			}
			want := 16
			if b == nas.LU {
				want = 4
			}
			if counts := charCountsFor(b, c, 1); counts[0] != want || slices.Contains(counts, 1) {
				t.Errorf("charCountsFor(%s, %c, 1) = %v; a 1-rank request must borrow %d", b, c, counts, want)
			}
		}
	}
}

// TestServedTablesPriceEveryRoutine: the tables Prepare's gather serves
// measure only what prices nas.Routines(), and that is everything a
// projection of any NAS-MZ benchmark and class looks up — no routine is
// dropped or found missing — on one node (16 ranks) and across nodes (64
// ranks, so the inter-node fits are served too).
func TestServedTablesPriceEveryRoutine(t *testing.T) {
	counts := []int{16, 64}
	p, err := newPipeline(context.Background(), arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6), counts, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range counts {
		for _, b := range nas.Benchmarks() {
			for _, c := range nas.Classes() {
				if ranks > nas.MaxRanks(b, c) {
					continue
				}
				app, err := p.CharacterizeApp(b, c, []int{ranks})
				if err != nil {
					t.Fatal(err)
				}
				proj, err := p.Project(app, ranks)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range proj.Quality.Defects() {
					if d.Code == quality.DroppedMPIRoutine {
						t.Errorf("%s.%s@%d: %s", b, c, ranks, d)
					}
				}
			}
		}
	}
}

// TestNewPipelineGathersFullTables: NewPipeline is application-independent,
// so its tables are the full suite's — imb.Run's, bytes and all, at a
// multi-node count — even on a store a NAS-MZ gather has already filled
// with its served tables at the same counts.
func TestNewPipelineGathersFullTables(t *testing.T) {
	base, tgt := arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6)
	const ranks = 64
	st := NewStore(StoreConfig{})
	served, err := newPipeline(context.Background(), base, tgt, []int{ranks}, Options{Store: st}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := served.IMBBase[ranks].PerOp[mpi.RoutineAllreduce]; ok {
		t.Fatal("a served table measured Allreduce")
	}
	p, err := NewPipelineCtx(context.Background(), base, tgt, []int{32, ranks}, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		m   *arch.Machine
		got *imb.Table
	}{{base, p.IMBBase[ranks]}, {tgt, p.IMBTarget[ranks]}} {
		if _, err := side.got.Time(mpi.RoutineAllreduce, 16); err != nil {
			t.Errorf("%s@%d: %v", side.m.Name, ranks, err)
		}
		want, err := imb.Run(side.m, ranks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(side.got, want) {
			t.Errorf("%s@%d: NewPipeline's table differs from imb.Run's", side.m.Name, ranks)
		}
	}
}
