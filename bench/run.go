package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	// defaultSeconds is the -seconds value the per-pass op counts in
	// workload.go are sized for; other values scale the counts in
	// proportion. Op counts are a function of the flags alone, never of
	// the clock, so two commits given the same flags do identical work.
	defaultSeconds = 20
	// untracedPasses is how many times a workload's seeded op list is
	// run, each time on freshly built state, so that every op is timed
	// three times in the same state. On a shared host an op now and then
	// lands in a noisy neighbour's burst; endToEnd votes the bursts out.
	untracedPasses = 3
	// maxAbsErrPct is the paper's headline mean projection error; a
	// validating workload whose mean |error| exceeds it has wrong outputs.
	maxAbsErrPct = 11.44
)

// opCount is how many ops a pass of w runs for a -seconds value.
func (w *workload) opCount(seconds int) int {
	n := int(math.Round(float64(w.ops) * float64(seconds) / defaultSeconds))
	if w.maxOps > 0 && n > w.maxOps {
		n = w.maxOps
	}
	return max(n, 1)
}

// genOps is the workload's op list for a seed: the only thing the seed
// decides, and all the program ever sees of it.
func (w *workload) genOps(seed int64, seconds int) []op {
	return w.gen(rand.New(rand.NewSource(seed)), w.opCount(seconds))
}

// passStats is what one pass over the op list measured.
type passStats struct {
	setupS  float64
	latMS   []float64 // one sample per op, in op order
	cpuS    float64   // rusage user+sys from the first op's start to the last op's end
	mallocs float64   // MemStats deltas over the same window, driver included
	allocMB float64
	outs    [][]byte // first response per op.ref
	failed  int
	absErr  []float64        // |combined error| of every validated op
	layer   map[string]int64 // obs counter deltas over the window (traced passes)
	spans   int
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB). One process runs one workload, so it is that
// workload's alone.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setUp runs w's set-up and times it.
func setUp(e *env, w *workload, scope *obs.Scope, tr *tracer) (*session, float64, error) {
	// Collect the previous pass's garbage outside every timed window, so
	// a pass neither pays for its predecessor's heap nor stacks its own
	// on top of it in the resident-set high-water mark.
	runtime.GC()
	sp := tr.request("setup")
	start := time.Now()
	sess, err := w.setup(e, scope, sp)
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return sess, time.Since(start).Seconds(), nil
}

// runPass runs ops once against sess and verifies the outputs after the
// timed window. An op that errors, or whose output fails a check, counts
// as failed; it does not stop the pass.
func runPass(w *workload, ops []op, sess *session, tr *tracer, logf func(string, ...any)) passStats {
	p := passStats{latMS: make([]float64, len(ops))}
	nref := 0
	for _, o := range ops {
		nref = max(nref, o.ref+1)
	}
	p.outs = make([][]byte, nref)
	bad := make([]bool, len(ops))
	before := counters(sess.scope)
	spans0 := tr.count()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	for i, o := range ops {
		sp := tr.request("op")
		t0 := time.Now()
		out, err := w.do(sess, o, sp)
		p.latMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.end()
		switch {
		case err != nil:
			bad[i] = true
			logf("op %d failed: %v", i, err)
		case p.outs[o.ref] == nil:
			p.outs[o.ref] = append([]byte{}, out...)
		case !bytes.Equal(p.outs[o.ref], out):
			bad[i] = true
			logf("op %d: response differs from the first one to the same request", i)
		}
	}
	p.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = float64(m1.Mallocs - m0.Mallocs)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6

	p.spans = tr.count() - spans0
	p.layer = map[string]int64{}
	for name, v := range counters(sess.scope) {
		p.layer[name] = v - before[name]
	}
	verdicts := make(map[int]error, nref)
	for i, o := range ops {
		out := p.outs[o.ref]
		if bad[i] || out == nil { // out is nil when the first op with this request failed
			bad[i] = true
			continue
		}
		verdict, seen := verdicts[o.ref]
		if !seen {
			verdict = w.verify(sess, o, out)
			verdicts[o.ref] = verdict
			if verdict != nil {
				logf("op %d: %v", i, verdict)
			}
			if v, ok := absErrPct(out); ok {
				p.absErr = append(p.absErr, v)
			}
		}
		bad[i] = verdict != nil
	}
	for _, b := range bad {
		if b {
			p.failed++
		}
	}
	return p
}

// counters snapshots an obs scope's counters (empty for a nil scope).
func counters(scope *obs.Scope) map[string]int64 {
	out := map[string]int64{}
	for _, c := range scope.Metrics().Counters {
		out[c.Name] = c.Value
	}
	return out
}

// runResult is everything one invocation on one workload measured.
type runResult struct {
	ops    int
	passes []passStats
	failed int
	sha    string // sha256 over the first pass's outputs, in ref order
}

// runWorkload runs w's seeded op list once per entry of tracers — a nil
// entry is a pass without spans — each pass on freshly built state, and
// cross-checks the passes: the same requests must be answered with the
// same bytes in each. A traced pass also gives its servers an obs scope,
// the source of the per-layer counters; end-to-end passes run without.
func runWorkload(e *env, w *workload, seed int64, seconds int, tracers []*tracer, logf func(string, ...any)) (*runResult, error) {
	ops := w.genOps(seed, seconds)
	res := &runResult{ops: len(ops)}
	for i, tr := range tracers {
		var scope *obs.Scope
		if tr != nil {
			scope = obs.New(w.name)
		}
		sess, setupS, err := setUp(e, w, scope, tr)
		if err != nil {
			return nil, err
		}
		p := runPass(w, ops, sess, tr, logf)
		sess.close()
		p.setupS = setupS
		if i > 0 {
			for ref, out := range p.outs {
				if !bytes.Equal(out, res.passes[0].outs[ref]) && p.failed < len(ops) {
					logf("pass %d: response %d differs from pass 0's", i, ref)
					p.failed++
				}
			}
			p.outs = nil
		}
		res.passes = append(res.passes, p)
	}

	var absErr []float64
	sum := sha256.New()
	for _, out := range res.passes[0].outs {
		sum.Write(out)
	}
	res.sha = hex.EncodeToString(sum.Sum(nil))
	for _, p := range res.passes {
		res.failed += p.failed
		absErr = append(absErr, p.absErr...)
	}
	// The paper's figure is a mean over its matrix, so it only binds a
	// sweep of the workload's whole universe, not a scaled-down prefix.
	if m := mean(absErr); m > maxAbsErrPct && len(ops) == w.maxOps {
		logf("mean |error| %.2f %% exceeds the paper's %.2f %%", m, maxAbsErrPct)
		res.failed = len(res.passes) * len(ops)
	}
	return res, nil
}

// vote turns the passes into one value per end-to-end metric and
// diagnostic, and returns the per-pass values beside it as dispersion.
//
// Noise on a shared host only ever slows an op down, so the timing
// values take, for each op, the fastest of its passes — the same request
// in the same state each time — as that op's service time: ops_per_s is
// the rate of a loop that ran every op at it, latency_p50_ms the median of
// those times over the ops. cpu_s_per_op, which rusage cannot resolve per
// op, is the cheapest pass. Set-up time and the allocation metrics, which
// bursts do not touch, are medians of the passes; peak_rss_mb is the
// process's.
func (rr *runResult) vote() (voted map[string]float64, perPass map[string][]float64) {
	n := float64(rr.ops)
	perPass = map[string][]float64{}
	best := make([]float64, rr.ops)
	for i := range best {
		best[i] = math.Inf(1)
	}
	for _, p := range rr.passes {
		for i, ms := range p.latMS {
			best[i] = min(best[i], ms)
		}
		for name, v := range map[string]float64{
			"setup_s":         p.setupS,
			"latency_p50_ms":  median(p.latMS),
			"ops_per_s":       n / (sum(p.latMS) / 1e3),
			"cpu_s_per_op":    p.cpuS / n,
			"allocs_per_op":   p.mallocs / n,
			"alloc_mb_per_op": p.allocMB / n,
		} {
			perPass[name] = append(perPass[name], v)
		}
	}
	voted = map[string]float64{
		"setup_s":         median(perPass["setup_s"]),
		"latency_p50_ms":  median(best),
		"ops_per_s":       n / (sum(best) / 1e3),
		"cpu_s_per_op":    slices.Min(perPass["cpu_s_per_op"]),
		"allocs_per_op":   median(perPass["allocs_per_op"]),
		"alloc_mb_per_op": median(perPass["alloc_mb_per_op"]),
		"peak_rss_mb":     peakRSSMB(),
	}
	return voted, perPass
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
