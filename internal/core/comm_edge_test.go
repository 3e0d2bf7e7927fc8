package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/mpiprof"
	"repro/internal/nas"
	"repro/internal/units"
)

// synthTable builds a minimal hand-made IMB table pricing Bcast at v
// seconds per call at every grid size.
func synthTable(machine string, ranks int, v units.Seconds) *imb.Table {
	sizes := []units.Bytes{1024, 4096}
	perOp := map[units.Bytes]units.Seconds{}
	for _, s := range sizes {
		perOp[s] = v
	}
	return &imb.Table{
		Machine: machine,
		Ranks:   ranks,
		Sizes:   sizes,
		PerOp:   map[mpi.Routine]map[units.Bytes]units.Seconds{mpi.RoutineBcast: perOp},
	}
}

// synthProfile profiles a job of `ranks` identical tasks, each with one
// call of routine rt at 1 KiB costing elapsed seconds.
func synthProfile(rt mpi.Routine, ranks int, elapsed units.Seconds) *mpiprof.Profile {
	p := mpiprof.New(ranks)
	for r := 0; r < ranks; r++ {
		p.OnRoutine(r, mpi.RoutineEvent{Routine: rt, Bytes: 1024, Count: 1, Elapsed: elapsed})
	}
	return p.Profile("synthetic", "synthetic", elapsed)
}

// synthPipeline wires hand-made IMB tables into a pipeline without running
// any benchmark, for exercising projectComm's numeric edges in isolation.
func synthPipeline(ranks int, baseOp, tgtOp units.Seconds) *Pipeline {
	return &Pipeline{
		Base:      arch.MustGet(arch.Hydra),
		Target:    arch.MustGet(arch.Power6),
		IMBBase:   map[int]*imb.Table{ranks: synthTable(arch.Hydra, ranks, baseOp)},
		IMBTarget: map[int]*imb.Table{ranks: synthTable(arch.Power6, ranks, tgtOp)},
	}
}

func synthApp(rt mpi.Routine, ranks int, elapsed units.Seconds) *AppModel {
	return &AppModel{
		Bench:    nas.BT,
		Class:    nas.ClassC,
		Counts:   []int{ranks},
		Profiles: map[int]*mpiprof.Profile{ranks: synthProfile(rt, ranks, elapsed)},
		Counters: map[int]*CounterPair{ranks: {Ranks: ranks}},
	}
}

// TestProjectCommWaitClamp covers the Eq. 4 clamp branch: when the
// IMB-predicted transfer exceeds the profiled elapsed (the benchmark's
// contention level overestimates the application's), the transfer is capped
// at the elapsed and the residual WaitTime is exactly zero — never
// negative.
func TestProjectCommWaitClamp(t *testing.T) {
	const ranks = 4
	const elapsed = 1e-3 // profiled: 1 ms per task
	// IMB prices a single Bcast at a full second — 1000x the profile.
	p := synthPipeline(ranks, 1.0, 0.5)
	app := synthApp(mpi.RoutineBcast, ranks, elapsed)

	comm, err := p.ProjectComm(app, ranks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(comm.Routines) != 1 {
		t.Fatalf("want 1 routine projection, got %d", len(comm.Routines))
	}
	rp := comm.Routines[0]
	if rp.BaseTransfer != elapsed {
		t.Errorf("transfer must clamp to elapsed: got %v, want %v", rp.BaseTransfer, elapsed)
	}
	if rp.BaseWait != 0 {
		t.Errorf("clamped transfer must leave BaseWait == 0, got %v", rp.BaseWait)
	}
	// Eq. 4 still decomposes exactly after the clamp.
	if rp.BaseElapsed != rp.BaseTransfer+rp.BaseWait {
		t.Errorf("Eq. 4 broken after clamp: %v != %v + %v", rp.BaseElapsed, rp.BaseTransfer, rp.BaseWait)
	}
	// Eq. 5: the target transfer scales the clamped transfer by the
	// machines' benchmark ratio (0.5/1.0), and zero wait stays zero.
	if want := elapsed * 0.5; math.Abs(rp.TargetTransfer-want) > 1e-15 {
		t.Errorf("target transfer = %v, want %v", rp.TargetTransfer, want)
	}
	if rp.TargetWait != 0 {
		t.Errorf("zero base wait must project to zero, got %v", rp.TargetWait)
	}
}

// TestProjectCommWaitScaleNoTransfer covers the commRatio fallback: a
// profile whose routines map to zero benchmark transfer (posting-only
// non-blocking calls with zero elapsed) leaves baseTransferSum == 0, and
// the wait-scale blend must fall back to commRatio = 1 instead of dividing
// by zero.
func TestProjectCommWaitScaleNoTransfer(t *testing.T) {
	const ranks = 4
	p := synthPipeline(ranks, 1.0, 0.5)
	app := synthApp(mpi.RoutineIsend, ranks, 0) // posting cost 0 → zero transfer

	const computeRatio = 2.0
	comm, err := p.ProjectComm(app, ranks, computeRatio)
	if err != nil {
		t.Fatal(err)
	}
	// WaitScale = 0.8·computeRatio + 0.2·1 with the neutral commRatio.
	want := waitBlend*computeRatio + (1 - waitBlend)
	if math.Abs(comm.WaitScale-want) > 1e-12 {
		t.Errorf("WaitScale = %v, want %v (neutral commRatio)", comm.WaitScale, want)
	}
	if math.IsNaN(comm.WaitScale) || math.IsInf(comm.WaitScale, 0) {
		t.Fatalf("WaitScale not finite: %v", comm.WaitScale)
	}
	for _, rp := range comm.Routines {
		if rp.TargetWait != 0 || rp.TargetTransfer != 0 {
			t.Errorf("zero-elapsed routine must project to zero, got %+v", rp)
		}
	}
}

// TestByClassDecompositions pins TargetByClass/BaseByClass against the
// routine-level sums they aggregate.
func TestByClassDecompositions(t *testing.T) {
	const ranks = 4
	p := synthPipeline(ranks, 1e-4, 5e-5)
	app := synthApp(mpi.RoutineBcast, ranks, 1e-3)
	comm, err := p.ProjectComm(app, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	tgt := comm.TargetByClass()
	base := comm.BaseByClass()
	var tgtSum, baseSum units.Seconds
	for _, cls := range []mpi.Class{mpi.ClassP2PNB, mpi.ClassP2PB, mpi.ClassCollective} {
		tgtSum += tgt[cls]
		baseSum += base[cls]
	}
	if math.Abs(tgtSum-comm.TargetTotal()) > 1e-15 {
		t.Errorf("TargetByClass sums to %v, want %v", tgtSum, comm.TargetTotal())
	}
	if math.Abs(baseSum-comm.BaseTotal()) > 1e-15 {
		t.Errorf("BaseByClass sums to %v, want %v", baseSum, comm.BaseTotal())
	}
	if base[mpi.ClassCollective] != comm.Routines[0].BaseElapsed {
		t.Errorf("BaseByClass[collective] = %v, want %v", base[mpi.ClassCollective], comm.Routines[0].BaseElapsed)
	}
}

// TestCtxCancellation verifies the context-aware entry points abort
// promptly with ctx.Err() at stage boundaries instead of completing the
// full evaluation.
func TestCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	base := arch.MustGet(arch.Hydra)
	tgt := arch.MustGet(arch.Power6)
	if _, err := NewPipelineCtx(ctx, base, tgt, []int{4}, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("NewPipelineCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Synthetic pipeline+app: no benchmark work needed to reach the checks.
	p := synthPipeline(4, 1e-4, 5e-5)
	app := synthApp(mpi.RoutineBcast, 4, 1e-3)
	if _, err := p.CharacterizeAppCtx(ctx, nas.LU, nas.ClassC, []int{4}); !errors.Is(err, context.Canceled) {
		t.Errorf("CharacterizeAppCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := p.ProjectCtx(ctx, app, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("ProjectCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := p.ValidateCtx(ctx, app, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("ValidateCtx under cancelled ctx: err = %v, want context.Canceled", err)
	}
}
