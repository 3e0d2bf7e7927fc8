package main

import (
	"bytes"
	"fmt"
	"io"
)

// traced is a -trace 1 invocation: one pass over the workload's op list
// with spans recorded and an obs scope on every server, then the layer
// walk and the probes. It reports the per-layer metrics and never the
// end-to-end ones, which only count when measured with tracing off.
func traced(o options, e *env, w *workload, ps probeSizes, stdout io.Writer, logf func(string, ...any)) (*result, error) {
	tr := newTracer()
	rr, err := runWorkload(e, w, o.seed, o.seconds, []*tracer{tr}, logf)
	if err != nil {
		return nil, err
	}
	pass := rr.passes[0]
	n := float64(rr.ops)
	layer := func(name string) float64 { return float64(pass.layer["server.cache."+name]) }
	m := map[string]float64{
		"workload.characterisation_misses_per_op": layer("characterisation_misses") / n,
		"workload.profile_misses_per_op":          layer("profile_misses") / n,
		"workload.surrogate_misses_per_op":        layer("surrogate_misses") / n,
		"workload.fail_ratio":                     float64(rr.failed) / n,
		"workload.mean_abs_err_pct":               mean(pass.absErr),
		"workload.latency_p50_ms":                 median(pass.latMS),
		"workload.latency_p90_ms":                 percentile(pass.latMS, 90),
		"workload.latency_p99_ms":                 percentile(pass.latMS, 99),
		"workload.cpu_s_per_op":                   pass.cpuS / n,
		"trace.spans_per_op":                      float64(pass.spans) / n,
		// What the spans cost, as a share of the pass they were recorded
		// in. Differencing a traced against an untraced pass cannot
		// resolve it: passes of the same code differ by several percent.
		"trace.overhead_pct": 100 * float64(pass.spans) * spanCostSeconds() / (sum(pass.latMS) / 1e3),
	}
	if served := layer("result_hits") + layer("result_misses"); served > 0 {
		m["workload.result_hit_ratio"] = layer("result_hits") / served
	} else {
		m["workload.result_hit_ratio"] = 0 // async jobs bypass the result cache
	}

	wr, err := walk(tr, ps.walk, ps.reps)
	if err != nil {
		return nil, err
	}
	// Where the workload itself validated the walked request, the walk's
	// document must be the one the service served for it.
	if w == validateSweep {
		for _, op := range w.genOps(o.seed, o.seconds) {
			if op.cell == ps.walk.cell && !bytes.Equal(pass.outs[op.ref], wr.body) {
				logf("the walk's document for %s differs from the /v1/validate body", op.cell)
				rr.failed++
			}
		}
	}
	pm, err := probes(e, ps, wr)
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{wr.metrics, pm} {
		for name, v := range part {
			m[name] = v
		}
	}
	if o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}

	res := newResult(rr)
	fmt.Fprintf(stdout, "traced run: per-layer metrics only; walked request %s\n", ps.walk.cell)
	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(stdout, "metric %-40s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d output_sha256=%s\n", res.Attempted, res.Failed, rr.sha)
	return res, nil
}
