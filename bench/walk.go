package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	swapp "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/imb"
	"repro/internal/nas"
	"repro/internal/report"
	"repro/internal/spec"
)

// walkSpec names the request the layer walk takes apart and the rank
// counts the library characterises for it (swapp's own choice of counts
// is unexported; if the two ever disagree the rendered bytes differ and
// the walk's output check fails).
type walkSpec struct {
	cell   cell
	counts []int
}

// r0 is the walked request: BT-MZ.C hydra→power6-575 at 64 ranks,
// validated.
var r0 = walkSpec{cell{primedTarget, "BT-MZ", "C", 64}, paperRanks}

// walkResult is what the walk leaves behind for the probes that need a
// built pipeline.
type walkResult struct {
	metrics map[string]float64
	data    *core.PipelineData
	pipe    *core.Pipeline
	app     *core.AppModel
	val     *core.Validation
	body    []byte // the rendered /v1/validate document
}

// walk reproduces swapp.ProjectAndValidateContext for ws from outside, one
// exported entry point per layer, serially (Workers 1, so stage times
// add), with a span around each call. The benchmark suites — nine tenths
// of the time — are gathered once; the stages after them, a second's
// worth, are run reps times and reported as medians, and so is the library
// call itself on the same gathered data. walk.unattributed_pct is the
// share of that call's time the stages it covers fail to account for.
func walk(tr *tracer, ws walkSpec, reps int) (*walkResult, error) {
	ctx := context.Background()
	base, err := arch.Get(arch.Hydra)
	if err != nil {
		return nil, err
	}
	target, err := arch.Get(ws.cell.Target)
	if err != nil {
		return nil, err
	}
	bench, class, ck := nas.Benchmark(ws.cell.Bench), nas.Class(ws.cell.Class[0]), ws.cell.Ranks
	// The per-count metric names are fixed to r0's counts; a walk over
	// other counts (tests) leaves those it does not visit at zero.
	m := map[string]float64{}
	for _, c := range r0.counts {
		m[fmt.Sprintf("walk.imb.%d_ms", c)] = 0
	}
	root := tr.request("walk")

	sp := root.child("spec")
	data := &core.PipelineData{IMBBase: map[int]*imb.Table{}, IMBTarget: map[int]*imb.Table{}}
	if data.SpecBase, err = spec.RunSuite(base, true); err != nil {
		return nil, fmt.Errorf("walk: spec on base: %w", err)
	}
	if data.SpecTarget, err = spec.RunSuite(target, true); err != nil {
		return nil, fmt.Errorf("walk: spec on target: %w", err)
	}
	sp.end()
	m["walk.spec_ms"] = sp.ms()

	sp = root.child("imb")
	for _, c := range ws.counts {
		csp := sp.child(fmt.Sprintf("imb.%d", c))
		if data.IMBBase[c], err = imb.Run(base, c, nil); err != nil {
			return nil, fmt.Errorf("walk: imb on base at %d: %w", c, err)
		}
		if data.IMBTarget[c], err = imb.Run(target, c, nil); err != nil {
			return nil, fmt.Errorf("walk: imb on target at %d: %w", c, err)
		}
		csp.end()
		m[fmt.Sprintf("walk.imb.%d_ms", c)] = csp.ms()
		m["walk.imb_tables"] += 2
	}
	sp.end()
	m["walk.imb_ms"] = sp.ms()

	wr := &walkResult{metrics: m, data: data}
	stages := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		if err := wr.project(ctx, root.child("project"), stages, base, target, ws); err != nil {
			return nil, err
		}
	}
	root.end()
	for name, ms := range stages {
		m[name] = median(ms)
	}
	m["walk.profiles"] = float64(len(wr.app.Counts))
	m["walk.abs_err_pct"] = math.Abs(wr.val.ErrCombined)
	m["walk.total_ms"] = m["walk.spec_ms"] + m["walk.imb_ms"] + m["walk.project_ms"]

	var directBody []byte
	ns, _, err := timed(reps, func() error {
		direct, err := swapp.ProjectAndValidateContext(ctx, swapp.Request{
			Target: ws.cell.Target, Bench: bench, Class: class, Ranks: ck, Workers: 1, Data: data})
		if err != nil {
			return err
		}
		directBody, err = report.MarshalProjection(direct.Projection, direct.Validation)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("walk: library call: %w", err)
	}
	if !bytes.Equal(directBody, wr.body) {
		return nil, fmt.Errorf("walk: the stage-by-stage document differs from the library call's")
	}
	m["walk.direct_ms"] = ns / 1e6
	// The library call covers what the walk's assemble, profile, validate
	// and render stages do (validate projects again, so the stand-alone
	// ga and comm stages are not added a second time).
	covered := m["walk.assemble_ms"] + m["walk.profile_ms"] + m["walk.ga_ms"] + m["walk.comm_ms"] + m["walk.target_run_ms"] + m["walk.render_ms"]
	m["walk.unattributed_pct"] = 100 * (m["walk.direct_ms"] - covered) / m["walk.direct_ms"]
	return wr, nil
}

// project is the part of the walk after the benchmark data is gathered:
// assemble the pipeline, profile the application, project compute and
// communication, validate against the target run, render. It appends each
// stage's milliseconds to stages and keeps the last repetition's products.
func (wr *walkResult) project(ctx context.Context, root *span, stages map[string][]float64, base, target *arch.Machine, ws walkSpec) error {
	bench, class, ck := nas.Benchmark(ws.cell.Bench), nas.Class(ws.cell.Class[0]), ws.cell.Ranks
	stage := func(name string, f func() error) error {
		sp := root.child(name)
		err := f()
		sp.end()
		if err != nil {
			return fmt.Errorf("walk: %s: %w", name, err)
		}
		stages["walk."+name+"_ms"] = append(stages["walk."+name+"_ms"], sp.ms())
		return nil
	}
	var comp *core.ComputeProjection
	var err error
	steps := []struct {
		name string
		f    func() error
	}{
		{"assemble", func() error {
			wr.pipe, err = core.NewPipelineCtx(ctx, base, target, ws.counts, core.Options{Workers: 1, Data: wr.data})
			return err
		}},
		{"profile", func() error { wr.app, err = wr.pipe.CharacterizeAppCtx(ctx, bench, class, ws.counts); return err }},
		{"ga", func() error { comp, err = wr.pipe.ProjectCompute(wr.app, ck); return err }},
		{"comm", func() error { _, err = wr.pipe.ProjectComm(wr.app, ck, comp.SpeedupRatio()); return err }},
		// ValidateCtx projects again before it runs the application on
		// the target; target_run below is what remains of it after the
		// two projection stages just timed.
		{"validate", func() error { wr.val, err = wr.pipe.ValidateCtx(ctx, wr.app, ck); return err }},
		{"render", func() error { wr.body, err = report.MarshalProjection(wr.val.Proj, wr.val); return err }},
	}
	for _, s := range steps {
		if err := stage(s.name, s.f); err != nil {
			return err
		}
	}
	last := func(name string) float64 { v := stages["walk."+name+"_ms"]; return v[len(v)-1] }
	stages["walk.target_run_ms"] = append(stages["walk.target_run_ms"], last("validate")-last("ga")-last("comm"))
	root.end()
	stages["walk.project_ms"] = append(stages["walk.project_ms"], root.ms())
	return nil
}
