package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/units"
)

// Projection is the full SWAPP output (§3.3): the application's projected
// performance on the target machine at core count Ck, decomposed the way
// the paper's figures report it.
type Projection struct {
	App    string
	Target string
	Ck     int

	// Compute component (Eq. 7): per-task compute time, γ-scaled.
	Compute *ComputeProjection
	Gamma   float64
	// ComputeTime = Compute.TargetTime × Gamma.
	ComputeTime units.Seconds

	// Communication component (Eq. 6).
	Comm     *CommProjection
	CommTime units.Seconds

	// ACSM diagnostics.
	ACSM        *ACSM
	HyperScaled bool

	// Total is the combined projection (§3.3 step 3).
	Total units.Seconds

	// Quality is the data-fidelity ledger: the defects encountered and the
	// documented fallbacks substituted while producing this projection.
	// Always non-nil from Project*; Empty() on the full-fidelity path.
	Quality *quality.Report
}

// Project produces the full application projection at core count ck. When
// ck is one of the profiled counts, the characterisation at ck is used
// directly (γ = 1); otherwise the CCSM scales compute from the nearest
// profiled count, the ACSM flags cache-footprint transitions in between,
// and the communication component is extrapolated across the profiled
// counts' projections (the MPI scaling model).
func (p *Pipeline) Project(app *AppModel, ck int) (*Projection, error) {
	return p.project(context.Background(), p.Obs, app, ck)
}

// ProjectCtx is Project under a context: the compute projection (per GA
// ensemble member) and each per-count communication projection check ctx
// before starting, so an expired deadline aborts at the next stage boundary
// with ctx.Err().
func (p *Pipeline) ProjectCtx(ctx context.Context, app *AppModel, ck int) (*Projection, error) {
	return p.project(ctx, p.Obs, app, ck)
}

// project is the implementation; its span — and those of the compute and
// communication sub-projections — nest under parent.
func (p *Pipeline) project(ctx context.Context, parent *obs.Scope, app *AppModel, ck int) (*Projection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := parent.Child(fmt.Sprintf("core.project.%s@%d", app.Name(), ck))
	defer sp.End()
	if len(app.Counts) == 0 {
		return nil, errNoCounts(app)
	}
	ci := app.nearestCount(ck)

	// The quality report travels through every stage of this projection;
	// data defects found at pipeline assembly are inherited first.
	rec := quality.NewReport()
	rec.AddAll(p.Defects)

	comp, err := p.computeSurrogate(ctx, sp, app, ci)
	if err != nil {
		return nil, err
	}
	ccsm, err := FitCCSM(app)
	if err != nil {
		return nil, err
	}
	acsm := FitACSM(app)

	gamma := ccsm.Gamma(ci, ck)
	proj := &Projection{
		App:         app.Name(),
		Target:      p.Target.Name,
		Ck:          ck,
		Compute:     comp,
		Gamma:       gamma,
		ComputeTime: comp.TargetTime * gamma,
		ACSM:        acsm,
		HyperScaled: acsm.HyperScalesBetween(ci, ck),
		Quality:     rec,
	}

	if _, profiled := app.Profiles[ck]; profiled {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		comm, err := p.projectComm(sp, app, ck, comp.SpeedupRatio(), rec)
		if err != nil {
			return nil, err
		}
		proj.Comm = comm
		proj.CommTime = comm.TargetTotal()
	} else {
		// MPI communication scaling model: project at every profiled
		// count and fit the per-task total against core count.
		var xs, ys []float64
		var last *CommProjection
		for _, c := range app.Counts {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			comm, err := p.projectComm(sp, app, c, comp.SpeedupRatio(), rec)
			if err != nil {
				return nil, err
			}
			total := comm.TargetTotal()
			if total > 0 {
				xs = append(xs, float64(c))
				ys = append(ys, total)
			}
			last = comm
		}
		proj.Comm = last
		if len(xs) >= 2 {
			k, pw, err := stats.PowerFit(xs, ys)
			if err == nil {
				proj.CommTime = k * math.Pow(float64(ck), pw)
			} else {
				proj.CommTime = last.TargetTotal()
			}
		} else if last != nil {
			proj.CommTime = last.TargetTotal()
		}
	}

	proj.Total = proj.ComputeTime + proj.CommTime
	sp.Count("core.projections", 1)
	sp.Observe("core.projected_total_seconds", proj.Total)
	sp.Observe("core.projected_compute_seconds", proj.ComputeTime)
	sp.Observe("core.projected_comm_seconds", proj.CommTime)
	return proj, nil
}

// Validation compares a projection against the measured run on the target
// machine — the §4 experiment. Signed percent errors: positive means the
// projection was above the measurement (the paper reports 54 % of
// projections above actual).
type Validation struct {
	Proj *Projection

	MeasuredTotal   units.Seconds
	MeasuredCompute units.Seconds
	MeasuredComm    units.Seconds
	MeasuredByClass map[mpi.Class]units.Seconds

	// Signed percent errors.
	ErrCombined float64
	ErrCompute  float64
	ErrComm     float64
	ErrByClass  map[mpi.Class]float64
}

// pctErr is the signed percent error of projected vs measured.
func pctErr(projected, measured units.Seconds) float64 {
	if measured == 0 {
		if projected == 0 {
			return 0
		}
		return 100
	}
	return 100 * (projected - measured) / measured
}

// Validate projects the application at ck and runs it for real on the
// target machine (the step SWAPP's users cannot do — this is the
// reproduction's ground truth), returning both sides with errors.
func (p *Pipeline) Validate(app *AppModel, ck int) (*Validation, error) {
	return p.ValidateCtx(context.Background(), app, ck)
}

// ValidateCtx is Validate under a context: the projection honours ctx at
// its stage boundaries and the measured target run is skipped if ctx has
// already expired.
//
// Neither half reads the other, so they run as two indices of the
// pipeline's pool: at Workers 1 the projection, then the measured run —
// which never starts if the projection failed; above that, side by side.
// Errors are reported in index order, so the projection's wins whenever
// both fail, whatever the schedule (a recovered panic only when neither
// returned an error). ValidateCtx returns once both have ended, and
// everything after the barrier reads the two results serially.
func (p *Pipeline) ValidateCtx(ctx context.Context, app *AppModel, ck int) (*Validation, error) {
	if len(app.Counts) == 0 {
		return nil, errNoCounts(app) // nothing to project: run nothing
	}
	sp := p.Obs.Child(fmt.Sprintf("core.validate.%s@%d", app.Name(), ck))
	defer sp.End()
	var (
		proj *Projection
		res  *nas.RunResult
		errs [2]error
	)
	poolErr := par.ForEachW(par.Workers(p.Workers), len(errs), func(_, i int) error {
		if i == 0 {
			proj, errs[0] = p.project(ctx, sp, app, ck)
		} else {
			res, errs[1] = p.measuredRun(ctx, sp, app, ck)
		}
		return errs[i]
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}
	mp := res.Profile
	ranks := units.Seconds(mp.Ranks())

	v := &Validation{
		Proj:            proj,
		MeasuredTotal:   res.Makespan,
		MeasuredCompute: mp.MeanCompute(),
		MeasuredComm:    mp.MeanComm(),
		MeasuredByClass: map[mpi.Class]units.Seconds{},
		ErrByClass:      map[mpi.Class]float64{},
	}
	for cls, el := range mp.ClassElapsed() {
		v.MeasuredByClass[cls] = el / ranks
	}
	v.ErrCombined = pctErr(proj.Total, v.MeasuredTotal)
	v.ErrCompute = pctErr(proj.ComputeTime, v.MeasuredCompute)
	v.ErrComm = pctErr(proj.CommTime, v.MeasuredComm)
	projByClass := proj.Comm.TargetByClass()
	for _, cls := range []mpi.Class{mpi.ClassP2PNB, mpi.ClassP2PB, mpi.ClassCollective} {
		meas, okM := v.MeasuredByClass[cls]
		projT, okP := projByClass[cls]
		if !okM && !okP {
			continue
		}
		v.ErrByClass[cls] = pctErr(projT, meas)
	}
	return v, nil
}

// measuredRun runs the application at ck on the target under a span
// beneath parent, unless ctx has already expired.
func (p *Pipeline) measuredRun(ctx context.Context, parent *obs.Scope, app *AppModel, ck int) (*nas.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := parent.Child("measured-run." + p.Target.Name)
	defer sp.End()
	res, err := nas.Run(nas.Config{Bench: app.Bench, Class: app.Class, Ranks: ck}, p.Target)
	if err != nil {
		return nil, fmt.Errorf("core: measured run on %s: %w", p.Target.Name, err)
	}
	return res, nil
}
