// Package swapp is SWAPP — Surrogate-based Workload Application Performance
// Projection — a framework for projecting the performance of HPC
// applications onto machines they cannot be run on, using benchmark data,
// reproduced from:
//
//	Sharkawi, DeSota, Panda, Stevens, Taylor, Wu.
//	"SWAPP: A Framework for Performance Projections of HPC Applications
//	Using Benchmarks", IPDPS 2012.
//
// The package is the public face of the repository. It wires together the
// internal substrates — machine models, a hardware-counter simulator, a
// discrete-event MPI simulator, the SPEC CPU2006 and IMB surrogate
// benchmark suites, and the NAS Multi-Zone applications — behind a small
// API:
//
//	result, err := swapp.Project(swapp.Request{
//	        Target: swapp.TargetPower6,
//	        Bench:  swapp.BT, Class: swapp.ClassC, Ranks: 64,
//	})
//
// Everything runs on simulated hardware (see DESIGN.md for the
// substitutions); SWAPP itself — profiles in, projections out — is exactly
// the paper's pipeline.
package swapp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/units"
)

// Machine short names (the paper's Table 2 systems).
const (
	BaseHydra      = arch.Hydra    // TAMU Hydra, POWER5+ — the base machine
	TargetPower6   = arch.Power6   // IBM POWER6 575 cluster
	TargetBlueGene = arch.BlueGene // IBM BlueGene/P
	TargetWestmere = arch.Westmere // IBM iDataPlex, Xeon X5670
)

// Benchmarks (the paper's applications).
const (
	BT = nas.BT // BT-MZ: uneven zones, WaitTime-dominated at scale
	SP = nas.SP // SP-MZ: even zones, transfer-driven communication
	LU = nas.LU // LU-MZ: 16 zones, minimal communication
)

// Problem classes.
const (
	ClassC = nas.ClassC
	ClassD = nas.ClassD
)

// Machines lists the modelled systems (sorted by short name).
func Machines() []*arch.Machine { return arch.All() }

// MachineNames lists the modelled systems' short names.
func MachineNames() []string { return arch.Names() }

// Request selects one projection: application, problem size, target
// machine and core count. Base defaults to the paper's Hydra.
type Request struct {
	Base   string
	Target string
	Bench  nas.Benchmark
	Class  nas.Class
	Ranks  int
	// Workers bounds the evaluation engine's concurrency (benchmark
	// characterisation, application profiling, the GA surrogate search):
	// 0 means runtime.GOMAXPROCS(0), 1 forces the serial path. The
	// projection is byte-identical for every value.
	Workers int
	// Obs, when non-nil, instruments the projection: hierarchical spans
	// across pipeline construction, characterisation and both projection
	// components, plus counters and histograms (see internal/obs). nil — the
	// default — costs nothing, and the projection is byte-identical with
	// observability on or off.
	Obs *obs.Scope
	// StageTimeout, when positive, bounds each pipeline stage (benchmark
	// gathering, characterisation, projection, validation) individually,
	// in addition to any deadline on the request's context. A stage that
	// overruns fails with an error wrapping ErrStageTimeout, which
	// distinguishes "one stage hung" from "the whole request timed out".
	// Zero — the default — imposes no per-stage bound.
	StageTimeout time.Duration
	// Data, when non-nil, supplies pre-measured benchmark data instead of
	// running the suites in-process (see core.PipelineData) — the paper's
	// real workflow, and the degraded-input path: partial data flows
	// through with recorded defects instead of failing.
	Data *core.PipelineData
	// Store, when non-nil, is a layered artifact cache shared across
	// requests (see core.NewStore): machine characterisations, app
	// profiles, and finished compute surrogates are resolved through it
	// instead of recomputed, amortising the pipeline's cost across every
	// request that shares a machine, an app, or a (base, app, target)
	// triple. Purely an amortisation — the projection is byte-identical
	// with or without a store — and ignored when Data supplies external
	// benchmark data or while fault injection is armed.
	Store *core.Store
	// OnGAProgress, when non-nil, taps the GA surrogate search's
	// per-generation progress (member index, generation, running best
	// fitness). Strictly passive; must be safe for concurrent calls
	// (ensemble members run in parallel). Progress only fires when the
	// search actually runs — a projection served whole from Store
	// completes without generations.
	OnGAProgress func(member, gen int, best float64)
}

// withDefaults validates and fills the request.
func (r Request) withDefaults() (Request, error) {
	if r.Base == "" {
		r.Base = BaseHydra
	}
	if _, err := arch.Get(r.Base); err != nil {
		return r, err
	}
	if _, err := arch.Get(r.Target); err != nil {
		return r, err
	}
	if r.Base == r.Target {
		return r, fmt.Errorf("swapp: target must differ from base (%s)", r.Base)
	}
	if r.Ranks <= 0 {
		return r, fmt.Errorf("swapp: ranks must be positive")
	}
	if max := nas.MaxRanks(r.Bench, r.Class); max == 0 {
		return r, fmt.Errorf("swapp: unknown benchmark/class %s.%c", r.Bench, r.Class)
	} else if r.Ranks > max {
		return r, fmt.Errorf("swapp: %s.%c supports at most %d ranks", r.Bench, r.Class, max)
	}
	return r, nil
}

// Normalized validates the request and returns it with defaults filled
// (empty Base becomes the paper's Hydra). Services that key caches on
// request contents should normalise first, so that equivalent requests
// share an entry.
func (r Request) Normalized() (Request, error) { return r.withDefaults() }

// ErrStageTimeout marks a pipeline stage that overran the request's
// per-stage budget (Request.StageTimeout) while the request as a whole
// still had time left. Services use errors.Is against it to distinguish a
// hung stage from an expired request deadline.
var ErrStageTimeout = errors.New("swapp: stage timeout exceeded")

// stage runs one pipeline stage under the per-stage budget. With no budget
// set it is a direct call. When the stage's own deadline fires while the
// request context is still alive, the context error is converted into an
// ErrStageTimeout-wrapping error naming the stage.
func (r Request) stage(ctx context.Context, name string, f func(context.Context) error) error {
	if r.StageTimeout <= 0 {
		return f(ctx)
	}
	sctx, cancel := context.WithTimeout(ctx, r.StageTimeout)
	defer cancel()
	err := f(sctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		return fmt.Errorf("swapp: stage %q exceeded its %v budget: %w", name, r.StageTimeout, ErrStageTimeout)
	}
	return err
}

// Result is a finished projection, optionally with its validation against
// a measured run.
type Result struct {
	Request    Request
	Projection *core.Projection
	// Validation is nil unless ProjectAndValidate was used.
	Validation *core.Validation
}

// TotalSeconds is the projected application runtime.
func (r *Result) TotalSeconds() units.Seconds { return r.Projection.Total }

// String summarises the result.
func (r *Result) String() string {
	p := r.Projection
	s := fmt.Sprintf("%s @%d ranks on %s: projected %s (compute %s + communication %s)",
		p.App, p.Ck, p.Target,
		units.FormatSeconds(p.Total), units.FormatSeconds(p.ComputeTime), units.FormatSeconds(p.CommTime))
	if r.Validation != nil {
		s += fmt.Sprintf("; measured %s (error %+.2f%%)",
			units.FormatSeconds(r.Validation.MeasuredTotal), r.Validation.ErrCombined)
	}
	if q := p.Quality; !q.Empty() {
		s += fmt.Sprintf("; quality grade %s (%d input defects)", q.Grade(), len(q.Defects()))
	}
	return s
}

// Project runs the full SWAPP pipeline for one request: benchmark data
// gathering on base and target, application characterisation on the base,
// and the combined compute + communication projection. The target machine
// is never given the application.
func Project(req Request) (*Result, error) {
	return ProjectContext(context.Background(), req)
}

// ProjectContext is Project with cancellation: the evaluation aborts
// promptly with ctx.Err() at stage boundaries when ctx is cancelled or its
// deadline expires. The context has no effect on the numbers — a completed
// projection is byte-identical to Project's.
func ProjectContext(ctx context.Context, req Request) (*Result, error) {
	req, err := req.withDefaults()
	if err != nil {
		return nil, err
	}
	pipe, app, err := prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	var proj *core.Projection
	if err := req.stage(ctx, "project", func(c context.Context) error {
		var err error
		proj, err = pipe.ProjectCtx(c, app, req.Ranks)
		return err
	}); err != nil {
		return nil, err
	}
	return &Result{Request: req, Projection: proj}, nil
}

// ProjectAndValidate additionally runs the application on the (simulated)
// target — the ground truth a SWAPP user does not have — and reports the
// projection error.
func ProjectAndValidate(req Request) (*Result, error) {
	return ProjectAndValidateContext(context.Background(), req)
}

// ProjectAndValidateContext is ProjectAndValidate with cancellation,
// under the same contract as ProjectContext.
func ProjectAndValidateContext(ctx context.Context, req Request) (*Result, error) {
	req, err := req.withDefaults()
	if err != nil {
		return nil, err
	}
	pipe, app, err := prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	var v *core.Validation
	if err := req.stage(ctx, "validate", func(c context.Context) error {
		var err error
		v, err = pipe.ValidateCtx(c, app, req.Ranks)
		return err
	}); err != nil {
		return nil, err
	}
	return &Result{Request: req, Projection: v.Proj, Validation: v}, nil
}

// prepare builds the pipeline and app model for a request, each stage
// under the request's per-stage budget.
func prepare(ctx context.Context, req Request) (*core.Pipeline, *core.AppModel, error) {
	base := arch.MustGet(req.Base)
	target := arch.MustGet(req.Target)
	counts := charCountsFor(req.Bench, req.Class, req.Ranks)
	var pipe *core.Pipeline
	if err := req.stage(ctx, "pipeline", func(c context.Context) error {
		var err error
		pipe, err = core.NewPipelineCtx(c, base, target, counts,
			core.Options{Workers: req.Workers, Obs: req.Obs, Data: req.Data,
				Store: req.Store, OnGAProgress: req.OnGAProgress})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var app *core.AppModel
	if err := req.stage(ctx, "characterize", func(c context.Context) error {
		var err error
		app, err = pipe.CharacterizeAppCtx(c, req.Bench, req.Class, counts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return pipe, app, nil
}

// charCountsFor picks the base-machine characterisation sweep for a
// request: the paper's counts, restricted to the benchmark's limits and
// including the requested count when it is profile-able.
func charCountsFor(b nas.Benchmark, c nas.Class, ranks int) []int {
	max := nas.MaxRanks(b, c)
	set := map[int]bool{}
	for _, v := range []int{16, 32, 64, 128, ranks} {
		if v >= 2 && v <= max {
			set[v] = true
		}
	}
	if b == nas.LU {
		set[4], set[8] = true, true
	}
	var out []int
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// NewEvaluation returns a figures.Runner for regenerating the paper's full
// evaluation (Tables 1–2, Figures 3–9, summary). See cmd/figures for a CLI
// around it.
func NewEvaluation() *figures.Runner { return figures.NewRunner() }

// CommClasses re-exports the routine classes used in reports.
var CommClasses = []mpi.Class{mpi.ClassP2PNB, mpi.ClassP2PB, mpi.ClassCollective}
