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
	"fmt"

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
	// characterisation, application profiling, the GA surrogate search,
	// and a validation's measured run beside its projection): 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial path. The projection is
	// byte-identical for every value.
	Workers int
	// Obs, when non-nil, instruments the projection: hierarchical spans
	// across pipeline construction, characterisation and both projection
	// components, plus counters and histograms (see internal/obs). nil — the
	// default — costs nothing, and the projection is byte-identical with
	// observability on or off.
	Obs *obs.Scope
	// Data, when non-nil, supplies pre-measured benchmark data instead of
	// running the suites in-process (see core.PipelineData) — the paper's
	// real workflow, and the degraded-input path: partial data flows
	// through with recorded defects instead of failing.
	Data *core.PipelineData
	// Store, when non-nil, is a layered artifact cache shared across
	// requests (see core.NewStore): machine characterisations and app
	// profiles are resolved through it instead of recomputed, amortising
	// the pipeline's cost across every request that shares a machine or
	// an (app, base) pair. Purely an amortisation — the projection is
	// byte-identical with or without a store — and ignored when Data
	// supplies external benchmark data.
	Store *core.Store
}

// withDefaults validates and fills the request.
func (r Request) withDefaults() (Request, error) {
	if r.Base == "" {
		r.Base = BaseHydra
	}
	base, err := arch.Get(r.Base)
	if err != nil {
		return r, err
	}
	target, err := arch.Get(r.Target)
	if err != nil {
		return r, err
	}
	if r.Base == r.Target {
		return r, fmt.Errorf("swapp: target must differ from base (%s)", r.Base)
	}
	// One rank sends nothing: there is no communication to project, and
	// a power law fitted over profiled counts would invent some.
	if r.Ranks < 2 {
		return r, fmt.Errorf("swapp: ranks must be at least 2, got %d", r.Ranks)
	}
	if max := nas.MaxRanks(r.Bench, r.Class); max == 0 {
		return r, fmt.Errorf("swapp: unknown benchmark/class %s.%c", r.Bench, r.Class)
	} else if r.Ranks > max {
		return r, fmt.Errorf("swapp: %s.%c supports at most %d ranks", r.Bench, r.Class, max)
	}
	// The application runs on the base and the benchmarks at Ck on both
	// machines, so Ck must fit the smaller one.
	for _, m := range []*arch.Machine{base, target} {
		if r.Ranks > m.TotalCores {
			return r, fmt.Errorf("swapp: %s has %d cores, fewer than %d ranks", m.Name, m.TotalCores, r.Ranks)
		}
	}
	return r, nil
}

// Normalized validates the request and returns it with defaults filled
// (empty Base becomes the paper's Hydra). Services that key caches on
// request contents should normalise first, so that equivalent requests
// share an entry.
func (r Request) Normalized() (Request, error) { return r.withDefaults() }

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
	proj, err := pipe.ProjectCtx(ctx, app, req.Ranks)
	if err != nil {
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
	v, err := pipe.ValidateCtx(ctx, app, req.Ranks)
	if err != nil {
		return nil, err
	}
	return &Result{Request: req, Projection: v.Proj, Validation: v}, nil
}

// prepare runs core's preparation step for a request.
func prepare(ctx context.Context, req Request) (*core.Pipeline, *core.AppModel, error) {
	return core.Prepare(ctx, arch.MustGet(req.Base), arch.MustGet(req.Target), req.Bench, req.Class, req.Ranks,
		core.Options{Workers: req.Workers, Obs: req.Obs, Data: req.Data, Store: req.Store})
}

// NewEvaluation returns a figures.Runner for regenerating the paper's full
// evaluation (Tables 1–2, Figures 3–9, summary). See cmd/figures for a CLI
// around it.
func NewEvaluation() *figures.Runner { return figures.NewRunner() }

// CommClasses re-exports the routine classes used in reports.
var CommClasses = []mpi.Class{mpi.ClassP2PNB, mpi.ClassP2PB, mpi.ClassCollective}
