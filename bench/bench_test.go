package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	swapp "repro"
	"repro/internal/core"
	"repro/internal/mpi"
)

// stubEval answers every evaluation at once with a small well-formed
// projection whose total depends on the request, so the serving machinery
// runs end to end without the engine's cost.
func stubEval(_ context.Context, _ string, req swapp.Request) (*swapp.Result, error) {
	comm := &core.CommProjection{
		Ranks:     req.Ranks,
		WaitScale: 1.25,
		Routines: []*core.RoutineProjection{{Routine: mpi.RoutineBcast, Class: mpi.ClassCollective, Calls: 2,
			BaseElapsed: 0.2, BaseTransfer: 0.15, BaseWait: 0.05, TargetTransfer: 0.1, TargetWait: 0.06}},
	}
	proj := &core.Projection{
		App:    fmt.Sprintf("%s.%c", req.Bench, req.Class),
		Target: req.Target,
		Ck:     req.Ranks,
		Compute: &core.ComputeProjection{
			Surrogate: []core.SurrogateTerm{{Bench: "437.leslie3d", Weight: 1}},
			CharCount: req.Ranks, BaseTime: 2, TargetTime: 1, Ranking: [6]int{1, 2, 3, 4, 5, 6},
		},
		Gamma:       1,
		ComputeTime: float64(req.Ranks),
		Comm:        comm,
		CommTime:    comm.TargetTotal(),
	}
	proj.Total = proj.ComputeTime + proj.CommTime
	return &swapp.Result{Request: req, Projection: proj}, nil
}

// tinyProbes are the probe drivers' test sizes: the same code paths as
// defaultProbes, milliseconds instead of seconds. The walk needs the real
// engine (there is nothing to stub under it), so it walks the cheapest
// request there is.
var tinyProbes = probeSizes{
	walk:     walkSpec{cell{primedTarget, "LU-MZ", "C", 16}, []int{4, 8, 16}},
	handoffs: 50,
	mpiIters: 2,
	simRanks: 4,
	reps:     1,
	calls:    20,
	appends:  2,
	warm:     cell{primedTarget, "LU-MZ", "C", 16},
	jobs:     2,
}

// runStub runs one workload through runOne against the stub evaluation
// and returns its parsed result line and everything it printed.
func runStub(t *testing.T, o options, eval func(context.Context, string, swapp.Request) (*swapp.Result, error)) (result, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := runOne(o, &env{eval: eval, tmp: t.TempDir()}, tinyProbes, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("last line of output is not the result object: %v\n%s\n%s", jerr, stdout.String(), stderr.String())
	}
	return res, stdout.String() + stderr.String(), err
}

func sameSet(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s is %v", what, d.Name, v.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
}

// Every workload runs end to end against the stub, prints exactly the
// declared end-to-end metrics, and fails no op.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out, err := runStub(t, options{workload: w.name, seed: 3, seconds: 1}, stubEval)
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out)
			}
			if want := untracedPasses * w.opCount(1); !res.Correct || res.Failed != 0 || res.Attempted != want {
				t.Errorf("correct=%v attempted=%d failed=%d, want true %d 0\n%s", res.Correct, res.Attempted, res.Failed, want, out)
			}
			sameSet(t, w.name, res.Metrics, endToEnd)
			for _, d := range endToEnd {
				if !(res.Metrics[d.Name].Value > 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, res.Metrics[d.Name].Value)
				}
			}
			for _, want := range []string{"output_sha256=", "host nproc=", "diagnostic latency_p50_ms", "diagnostic cpu_s_per_op"} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

// A traced run prints exactly the declared per-layer metrics, none of the
// end-to-end ones, and a span file in which every request's spans hang
// together.
func TestTracedRun(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	res, out, err := runStub(t, options{workload: "durable-jobs", seed: 1, seconds: 4, trace: 1, traceOut: spans}, stubEval)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	sameSet(t, "traced", res.Metrics, perLayer)
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.Name]; ok {
			t.Errorf("traced run printed the end-to-end metric %s", d.Name)
		}
	}
	m := func(name string) float64 { return res.Metrics[name].Value }
	if m("walk.imb_tables") != 6 || m("walk.profiles") != 3 {
		t.Errorf("walk built %v tables and %v profiles, want 6 and 3", m("walk.imb_tables"), m("walk.profiles"))
	}
	// The walk projects twice (stand-alone, then inside the validation),
	// so its total holds the ga and comm stages once more than the
	// budget does.
	if got := m("walk.spec_ms") + m("walk.imb_ms") + m("walk.assemble_ms") + m("walk.profile_ms") + 2*m("walk.ga_ms") +
		2*m("walk.comm_ms") + m("walk.target_run_ms") + m("walk.render_ms"); math.Abs(got-m("walk.total_ms")) > 0.02*m("walk.total_ms") {
		t.Errorf("walk stages sum to %.3f ms, total is %.3f ms", got, m("walk.total_ms"))
	}
	if m("mpi.msgs") != 16*2*2 || m("jobs.journal_records_per_op") < 2 || m("trace.spans_per_op") != 4 {
		t.Errorf("mpi.msgs=%v jobs.journal_records_per_op=%v trace.spans_per_op=%v", m("mpi.msgs"), m("jobs.journal_records_per_op"), m("trace.spans_per_op"))
	}
	if m("workload.fail_ratio") != 0 || m("workload.result_hit_ratio") != 0 {
		t.Errorf("fail ratio %v, result hit ratio %v on a job workload", m("workload.fail_ratio"), m("workload.result_hit_ratio"))
	}

	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Request int    `json:"request"`
			Name    string `json:"name"`
			SelfUS  int64  `json:"self_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[int]int{}
	for i, s := range doc.Spans {
		byID[s.ID] = i
	}
	roots := map[int]int{}
	for _, s := range doc.Spans {
		if s.SelfUS < 0 {
			t.Errorf("span %d (%s): self time %d us", s.ID, s.Name, s.SelfUS)
		}
		if s.Parent == 0 {
			roots[s.Request]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || doc.Spans[p].Request != s.Request {
			t.Errorf("span %d (%s): parent %d is missing or belongs to another request", s.ID, s.Name, s.Parent)
		}
	}
	if len(doc.Spans) == 0 || len(roots) == 0 {
		t.Fatalf("span file holds %d spans in %d requests", len(doc.Spans), len(roots))
	}
	for req, n := range roots {
		if n != 1 {
			t.Errorf("request %d has %d root spans", req, n)
		}
	}
}

// Other workloads' traced counters come from the servers' obs scopes.
func TestTracedCounters(t *testing.T) {
	e := &env{eval: stubEval, tmp: t.TempDir()}
	rr, err := runWorkload(e, hotBatch, 1, 1, []*tracer{newTracer()}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p := rr.passes[0]
	if hits, want := p.layer["server.cache.result_hits"], int64(rr.ops*batchItems); hits != want || p.layer["server.cache.result_misses"] != 0 {
		t.Errorf("hot-batch pass: %d result hits and %d misses, want %d and 0", hits, p.layer["server.cache.result_misses"], want)
	}
	if p.spans != 2*rr.ops {
		t.Errorf("hot-batch pass recorded %d spans for %d ops", p.spans, rr.ops)
	}
}

// Failed ops are counted against ops attempted, whether the service
// refused them or a check rejected what it served, and the run reports
// itself incorrect.
func TestFailuresAreCounted(t *testing.T) {
	refuse := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if req.Ranks == 32 && op == "validate" {
			return nil, errors.New("injected")
		}
		return stubEval(ctx, op, req)
	}
	res, out, err := runStub(t, options{workload: "validate-sweep", seed: 1, seconds: defaultSeconds}, refuse)
	if err == nil || res.Correct || res.Failed != 2*untracedPasses || res.Attempted != 10*untracedPasses {
		t.Errorf("err=%v correct=%v attempted=%d failed=%d, want an error, false, 30, 6\n%s", err, res.Correct, res.Attempted, res.Failed, out)
	}

	zero := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		r, err := stubEval(ctx, op, req)
		if req.Bench == "LU-MZ" {
			r.Projection.Total = 0
		}
		return r, err
	}
	res, out, err = runStub(t, options{workload: "durable-jobs", seed: 1, seconds: defaultSeconds}, zero)
	if err == nil || res.Correct || res.Failed != untracedPasses {
		t.Errorf("err=%v correct=%v failed=%d, want an error, false, 3\n%s", err, res.Correct, res.Failed, out)
	}
}

// An op list is a pure function of the seed and -seconds.
func TestOpListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.genOps(7, defaultSeconds), w.genOps(7, defaultSeconds)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op lists", w.name)
		}
		if len(a) != w.ops {
			t.Errorf("%s: %d ops at the default -seconds, want %d", w.name, len(a), w.ops)
		}
		differs := false
		for seed := int64(8); seed < 12; seed++ {
			differs = differs || !reflect.DeepEqual(a, w.genOps(seed, defaultSeconds))
		}
		if !differs {
			t.Errorf("%s: four other seeds all gave seed 7's op list", w.name)
		}
		if w.opCount(1) < 1 || w.opCount(10*defaultSeconds) < w.ops {
			t.Errorf("%s: op count does not follow -seconds: %d, %d", w.name, w.opCount(1), w.opCount(10*defaultSeconds))
		}
		if w.maxOps > 0 && w.opCount(10*defaultSeconds) != w.maxOps {
			t.Errorf("%s: %d ops exceed the universe of %d", w.name, w.opCount(10*defaultSeconds), w.maxOps)
		}
	}
	// The seed must not decide what a pass costs or allocates: it picks
	// cold-project's ranks, hot-batch's item order, and the others' op
	// order, never the set of (target, application) pairs or keys.
	multiset := func(ops []op) map[string]int {
		m := map[string]int{}
		for _, o := range ops {
			m[o.cell.Target+o.cell.Bench+o.cell.Class]++
			for _, c := range o.items {
				m[c.String()]++
			}
		}
		return m
	}
	for _, w := range workloads {
		want := multiset(w.genOps(99, defaultSeconds))
		for seed := int64(0); seed < 5; seed++ {
			if a, b := multiset(w.genOps(seed, defaultSeconds)), want; !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seed %d asks for %v, seed 99 for %v", w.name, seed, a, b)
			}
		}
	}
	if got := zipfShares(9, batchItems); !reflect.DeepEqual(got, []int{27, 12, 7, 5, 4, 3, 2, 2, 2}) {
		t.Errorf("Zipf shares of a batch = %v", got)
	}
}

func TestStatistics(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	xs := []float64{15, 20, 35, 40, 50}
	for p, want := range map[float64]float64{30: 20, 40: 20, 50: 35, 90: 50, 100: 50} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if worseBy(lower, 100, 110) != 0.1 || worseBy(higher, 100, 110) != -0.1 || worseBy(higher, 100, 80) != 0.2 {
		t.Errorf("worseBy: %v %v %v", worseBy(lower, 100, 110), worseBy(higher, 100, 110), worseBy(higher, 100, 80))
	}
}

// Timing metrics take each op's fastest pass, so a burst that slows some
// ops of some passes does not move them; set-up and allocations are
// medians of the passes.
func TestPassesAreVoted(t *testing.T) {
	pass := func(setup float64, latMS []float64, cpuS float64) passStats {
		return passStats{setupS: setup, latMS: latMS, cpuS: cpuS, mallocs: 400 * setup, allocMB: 4 * setup}
	}
	rr := &runResult{ops: 4, passes: []passStats{
		pass(1, []float64{10, 90, 30, 40}, 2), // op 1 caught a burst
		pass(3, []float64{50, 20, 30, 40}, 4), // op 0 did
		pass(2, []float64{10, 20, 35, 400}, 1.2),
	}}
	voted, perPass := rr.vote()
	want := map[string]float64{
		"setup_s":         2,
		"latency_p50_ms":  25,  // best per op: 10 20 30 40
		"ops_per_s":       40,  // 4 ops in 100 ms
		"cpu_s_per_op":    0.3, // the cheapest pass
		"allocs_per_op":   200,
		"alloc_mb_per_op": 2,
	}
	for name, v := range want {
		if math.Abs(voted[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v (per pass %v)", name, voted[name], v, perPass[name])
		}
	}
	if got := perPass["latency_p50_ms"]; !reflect.DeepEqual(got, []float64{35, 35, 27.5}) {
		t.Errorf("per-pass latency medians %v", got)
	}
	if !(voted["peak_rss_mb"] > 0) {
		t.Errorf("peak_rss_mb = %v", voted["peak_rss_mb"])
	}
}

// The A/A table flags a median that worsened past its bound and a spread
// wider than its bound, but holds set-up time to no spread.
func TestAATable(t *testing.T) {
	set := func(scale float64, wide string) aaSet {
		s := aaSet{}
		for _, w := range workloads {
			s[w.name] = map[string][]float64{}
			for _, d := range endToEnd {
				vals := []float64{99 * scale, 100 * scale, 100 * scale, 101 * scale}
				if d.Name == wide {
					vals = []float64{50, 100, 100, 150}
				}
				s[w.name][d.Name] = vals
			}
		}
		return s
	}
	var out bytes.Buffer
	if n := aaTable(set(1, ""), set(1.01, ""), &out); n != 0 {
		t.Errorf("a 1 %% drift counted %d excesses:\n%s", n, out.String())
	}
	// 5 % worse exceeds only the 2 % bounds of the two allocation metrics
	// (ops_per_s grew, which is better).
	if n := aaTable(set(1, ""), set(1.05, ""), &out); n != 2*len(workloads) {
		t.Errorf("a 5 %% drift counted %d excesses, want %d", n, 2*len(workloads))
	}
	if n := aaTable(set(1, "setup_s"), set(1, "setup_s"), &out); n != 0 {
		t.Errorf("a wide set-up spread counted %d excesses", n)
	}
	if n := aaTable(set(1, "ops_per_s"), set(1, "ops_per_s"), &out); n != len(workloads) {
		t.Errorf("a wide throughput spread counted %d excesses, want %d", n, len(workloads))
	}
	if !strings.Contains(out.String(), "| hot-batch | allocs_per_op | 100 | 105 | +5.00 % | 1.50 % | 2 % | EXCESS |") {
		t.Errorf("table lacks the expected row:\n%s", out.String())
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json declares exactly what the program emits, within the
// limits the driver sets on names, units and bounds.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds != defaultSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d", f.Command, f.Paths, f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d exist", len(f.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: file says %q / %q, program says %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d declared in the file, %d in the program", kind, len(file), len(defs))
		}
		for i, d := range defs {
			unique(d.Name)
			m := file[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %d: file %+v, program %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound in file %v, in program %v, allowed (0, 0.25]", d.Name, m.Bound, d.Bound)
			case !bounded && (m.Bound != nil || d.Bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", endToEnd[0])
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"-runs", "0"}, {"stray"}, {"-no-such-flag"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if code := run([]string{"--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errb); code != 1 {
		t.Errorf("an unknown workload exited %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("a failed invocation printed to standard output: %q", out.String())
	}
}

// The jobs endpoint only streams to writers that can flush.
var _ http.Flusher = (*memWriter)(nil)

func TestNonOKIsAnError(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { http.Error(w, "no", http.StatusTeapot) })
	if _, err := post(h, nil, "/v1/project", nil); err == nil || !strings.Contains(err.Error(), "418") {
		t.Errorf("post through a failing handler returned %v", err)
	}
}
