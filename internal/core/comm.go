package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/mpiprof"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/units"
)

// RoutineProjection is the §2.4 per-routine output: transfer and wait time
// on the target per Eq. 5/6, per task.
type RoutineProjection struct {
	Routine mpi.Routine
	Class   mpi.Class

	Calls float64 // per-task calls

	// Base-side decomposition (Eq. 4): profiled elapsed split into the
	// IMB-predicted transfer and the residual WaitTime.
	BaseElapsed  units.Seconds
	BaseTransfer units.Seconds
	BaseWait     units.Seconds

	// Target-side projection (Eq. 5).
	TargetTransfer units.Seconds
	TargetWait     units.Seconds
}

// TargetElapsed is the Eq. 5 total for the routine.
func (rp *RoutineProjection) TargetElapsed() units.Seconds {
	return rp.TargetTransfer + rp.TargetWait
}

// CommProjection is the communication component's projection at one core
// count: per-task times.
type CommProjection struct {
	Ranks    int
	Routines []*RoutineProjection

	// WaitScale is the factor applied to base WaitTime (§2.4 step 3):
	// a blend of the compute and communication base→target ratios.
	WaitScale float64
}

// TargetTotal is the projected per-task communication time.
func (c *CommProjection) TargetTotal() units.Seconds {
	var s units.Seconds
	for _, r := range c.Routines {
		s += r.TargetElapsed()
	}
	return s
}

// BaseTotal is the profiled per-task communication time.
func (c *CommProjection) BaseTotal() units.Seconds {
	var s units.Seconds
	for _, r := range c.Routines {
		s += r.BaseElapsed
	}
	return s
}

// TargetByClass sums projected per-task time per routine class. The result
// is a map: consumers that render or accumulate floats from it must iterate
// in a fixed class order (see report.ClassOrder), never in map order.
func (c *CommProjection) TargetByClass() map[mpi.Class]units.Seconds {
	out := map[mpi.Class]units.Seconds{}
	for _, r := range c.Routines {
		out[r.Class] += r.TargetElapsed()
	}
	return out
}

// BaseByClass sums profiled per-task time per routine class — the base-side
// counterpart of TargetByClass, with the same fixed-iteration-order caveat.
func (c *CommProjection) BaseByClass() map[mpi.Class]units.Seconds {
	out := map[mpi.Class]units.Seconds{}
	for _, r := range c.Routines {
		out[r.Class] += r.BaseElapsed
	}
	return out
}

// waitBlend weights the compute ratio vs the transfer ratio when scaling
// WaitTime to the target. WaitTime is primarily load-imbalance idle time,
// which tracks compute speed; the residual tracks message timing.
const waitBlend = 0.8

// ProjectComm runs the §2.4 communication projection for the application
// at core count ck, using the base profile at ck and the IMB tables of
// both machines. computeRatio is the surrogate-projected target/base
// compute-time ratio, needed for the WaitTime scaling factor.
func (p *Pipeline) ProjectComm(app *AppModel, ck int, computeRatio float64) (*CommProjection, error) {
	return p.projectComm(p.Obs, app, ck, computeRatio, nil)
}

// projectComm is the implementation, with its span attached under parent.
// Degraded-mode fallbacks — unpriceable routines, grid-gap extrapolation,
// count substitution, a missing compute ratio — are recorded on rec
// (nil-safe).
func (p *Pipeline) projectComm(parent *obs.Scope, app *AppModel, ck int, computeRatio float64, rec *quality.Report) (*CommProjection, error) {
	sp := parent.Child(fmt.Sprintf("core.comm.%s@%d", app.Name(), ck))
	defer sp.End()
	prof, ok := app.Profiles[ck]
	if !ok {
		return nil, fmt.Errorf("core: no base profile at %d ranks for %s", ck, app.Name())
	}
	baseT, targetT, err := p.imbAt(ck, rec)
	if err != nil {
		return nil, err
	}

	ranks := float64(prof.Ranks())
	out := &CommProjection{Ranks: ck}

	// First pass: per-routine transfer mapping, to compute the overall
	// communication ratio for the wait-scale blend.
	var baseTransferSum, targetTransferSum units.Seconds
	type row struct {
		rt    mpi.Routine
		agg   *mpiprof.RoutineProfile
		baseT units.Seconds // per-task transfer on base
		tgtT  units.Seconds // per-task transfer on target
	}
	var rows []row
	for _, rt := range prof.Routines() {
		agg := prof.RoutineAggregate(rt)
		bt, tt := mapRoutineTransfer(rt, agg, baseT, targetT,
			p.Base.CoresPerNode, p.Target.CoresPerNode, rec)
		rows = append(rows, row{rt: rt, agg: agg, baseT: bt / ranks, tgtT: tt / ranks})
		baseTransferSum += bt / ranks
		targetTransferSum += tt / ranks
	}
	commRatio := 1.0
	if baseTransferSum > 0 {
		commRatio = targetTransferSum / baseTransferSum
	}
	if math.IsNaN(computeRatio) || math.IsInf(computeRatio, 0) || computeRatio <= 0 {
		// No usable compute ratio to blend with (a degraded compute
		// projection): carry base WaitTime over unscaled.
		rec.Add(quality.Defect{
			Code: quality.WaitScaleDefault, Component: quality.Comm, Severity: quality.Minor,
			Detail: fmt.Sprintf("no usable compute ratio (%v) for the wait-scale blend; WaitScale defaulted to 1", computeRatio),
		})
		out.WaitScale = 1
	} else {
		out.WaitScale = waitBlend*computeRatio + (1-waitBlend)*commRatio
	}

	// Second pass: Eq. 4 wait extraction and Eq. 5 target assembly. The
	// transfer portion of the profiled elapsed maps to the target by the
	// two machines' benchmark *ratio* rather than the absolute benchmark
	// estimate: the IMB pattern's contention level differs from the
	// application's, but the bias is common to both machines and cancels
	// in the ratio.
	for _, r := range rows {
		elapsed := r.agg.Elapsed / ranks
		transfer := r.baseT
		if transfer > elapsed {
			transfer = elapsed
		}
		wait := elapsed - transfer
		ratio := 1.0
		if r.baseT > 0 {
			ratio = r.tgtT / r.baseT
		}
		rp := &RoutineProjection{
			Routine:        r.rt,
			Class:          mpi.ClassOf(r.rt),
			Calls:          float64(r.agg.Calls) / ranks,
			BaseElapsed:    elapsed,
			BaseTransfer:   transfer,
			BaseWait:       wait,
			TargetTransfer: transfer * ratio,
			TargetWait:     wait * out.WaitScale,
		}
		out.Routines = append(out.Routines, rp)
	}
	sort.Slice(out.Routines, func(a, b int) bool {
		return out.Routines[a].Routine < out.Routines[b].Routine
	})
	// Per-routine communication seconds: histograms accumulate across the
	// projection's core counts, so a -metrics dump shows where projected
	// communication time concentrates.
	if sp.Enabled() {
		for _, rp := range out.Routines {
			sp.Observe("core.comm.target_seconds."+string(rp.Routine), rp.TargetElapsed())
			sp.Observe("core.comm.base_seconds."+string(rp.Routine), rp.BaseElapsed)
		}
		sp.Count("core.comm_projections", 1)
	}
	return out, nil
}

// intraFraction estimates, for dense placement of ranks onto nodes of
// width cpn, the probability that a peer at wrapped ring distance off
// shares the sender's node.
func intraFraction(off, cpn int) float64 {
	if off <= 0 {
		return 1
	}
	if off >= cpn {
		return 0
	}
	return 1 - float64(off)/float64(cpn)
}

// splitX converts a Waitall size entry's peer-offset histogram into the
// Eq. 1 (xIntra, xInter) per-call succession counts under a machine's node
// width. A succession is an Isend+Irecv pair, so request counts halve.
func splitX(se *mpiprof.SizeEntry, cpn int) (xIntra, xInter float64) {
	if se.Calls == 0 {
		return 0, 0
	}
	// The histogram is in ascending offset order, so the float
	// accumulation order is fixed.
	var intra, inter float64
	for _, oc := range se.Offsets {
		f := intraFraction(oc.Offset, cpn)
		intra += f * float64(oc.Count)
		inter += (1 - f) * float64(oc.Count)
	}
	if intra == 0 && inter == 0 {
		// No pattern recorded: assume everything crosses nodes.
		inter = float64(se.Messages)
	}
	calls := float64(se.Calls)
	return intra / calls / 2, inter / calls / 2
}

// mapRoutineTransfer maps one profiled routine's aggregate onto IMB
// parameters for both machines (Eq. 3), returning the aggregate transfer
// seconds across all tasks. The paper's correspondence:
//
//   - MPI_Waitall with x requests of mean size S ≡ multi-Sendrecv with
//     x/2 successions: T = overhead + Σ x·T_inFlight(S) per Eq. 1, with
//     the successions split into intra-node and inter-node parts using
//     the profiled peer-offset pattern and each machine's node width
//     (IMB's intra/inter cluster modes);
//   - MPI_Isend/MPI_Irecv are posting overhead only, mapped by the two
//     machines' fitted overhead ratio;
//   - blocking p2p and collectives map directly onto the matching IMB
//     benchmark at the profiled message size.
//
// A routine missing from either table cannot be priced. Instead of
// failing the whole projection, it returns zero transfer — the caller's
// Eq. 4 then treats the routine's entire elapsed as WaitTime, scaled by
// the wait-scale factor — and records a DroppedMPIRoutine defect on rec.
// Size-grid gaps bridged by extrapolation are recorded as IMBGridGap.
func mapRoutineTransfer(rt mpi.Routine, agg *mpiprof.RoutineProfile, baseT, targetT *imb.Table, baseCPN, targetCPN int, rec *quality.Report) (base, target units.Seconds) {
	gapCheck := func(size units.Bytes, nb bool) {
		var gap bool
		var side string
		switch {
		case nb && baseT.NBGap(size):
			gap, side = true, baseT.Machine
		case nb && targetT.NBGap(size):
			gap, side = true, targetT.Machine
		case !nb && baseT.CoverageGap(rt, size):
			gap, side = true, baseT.Machine
		case !nb && targetT.CoverageGap(rt, size):
			gap, side = true, targetT.Machine
		}
		if gap {
			rec.Add(quality.Defect{
				Code: quality.IMBGridGap, Component: quality.Comm, Severity: quality.Minor,
				Detail: fmt.Sprintf("%s lookup at %s extrapolated across a hole in the %s IMB size grid",
					rt, units.FormatBytes(size), side),
			})
		}
	}
	switch rt {
	case mpi.RoutineWaitall:
		for i := range agg.Sizes {
			se := &agg.Sizes[i]
			size := se.Bytes
			bi, be := splitX(se, baseCPN)
			ti, te := splitX(se, targetCPN)
			gapCheck(size, true)
			base += units.Seconds(se.Calls) * baseT.TransferNB(size, bi, be)
			target += units.Seconds(se.Calls) * targetT.TransferNB(size, ti, te)
		}
		return base, target

	case mpi.RoutineIsend, mpi.RoutineIrecv:
		// Posting cost: scale the profiled elapsed by the machines'
		// fitted library-overhead ratio.
		ratio := 1.0
		if baseT.NBOverhead() > 0 && targetT.NBOverhead() > 0 {
			ratio = targetT.NBOverhead() / baseT.NBOverhead()
		}
		return agg.Elapsed, agg.Elapsed * ratio

	case mpi.RoutineBarrier:
		if baseT.PerOp[mpi.RoutineBarrier] == nil || targetT.PerOp[mpi.RoutineBarrier] == nil {
			rec.Add(quality.Defect{
				Code: quality.DroppedMPIRoutine, Component: quality.Comm, Severity: quality.Major,
				Detail: "MPI_Barrier not measured in the IMB tables; its elapsed treated as pure WaitTime",
			})
			return 0, 0
		}
		base = units.Seconds(agg.Calls) * baseT.BarrierTime()
		target = units.Seconds(agg.Calls) * targetT.BarrierTime()
		return base, target

	default:
		// Direct Eq. 3 lookup per message size.
		imbRoutine := rt
		if rt == mpi.RoutineSend || rt == mpi.RoutineRecv {
			imbRoutine = rt // PingPong table entries exist under Send/Recv
		}
		for i := range agg.Sizes {
			se := &agg.Sizes[i]
			size := se.Bytes
			bt, errB := baseT.Time(imbRoutine, size)
			tt, errT := targetT.Time(imbRoutine, size)
			if errB != nil || errT != nil {
				side := baseT.Machine
				if errB == nil {
					side = targetT.Machine
				}
				rec.Add(quality.Defect{
					Code: quality.DroppedMPIRoutine, Component: quality.Comm, Severity: quality.Major,
					Detail: fmt.Sprintf("%s not in the %s IMB table; its elapsed treated as pure WaitTime", rt, side),
				})
				return 0, 0
			}
			gapCheck(size, false)
			base += units.Seconds(se.Calls) * bt
			target += units.Seconds(se.Calls) * tt
		}
		return base, target
	}
}
