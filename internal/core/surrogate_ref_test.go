package core

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/nas"
	"repro/internal/spec"
)

// The reference surrogate space: the §2.3 pool and group weights as they
// were computed before surrogateSpaceAt became one pass over the pool —
// each step sorts the pool and builds every benchmark's character vector
// for itself. TestSurrogateSpaceMatchesReference holds the one-pass code
// to it bit for bit.

func refCharacterVector(st, smt *hpm.Counters) []float64 {
	return append(st.Vector(), smt.Vector()...)
}

func refMetricScales(specBase map[string]spec.Result) []float64 {
	n := 2 * hpm.NumMetrics
	scales := make([]float64, n)
	var count float64
	for _, name := range spec.SortedNames(specBase) {
		r := specBase[name]
		v := refCharacterVector(&r.ST, &r.SMT)
		for i := 0; i < n; i++ {
			scales[i] += math.Abs(v[i])
		}
		count++
	}
	for i := range scales {
		scales[i] /= count
		if scales[i] < 1e-9 {
			scales[i] = 1e-9
		}
	}
	return scales
}

func refNormalize(v, scales []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] / scales[i]
	}
	return out
}

func refAdjustWeightsToTarget(groupW [6]float64, specBase, specTarget map[string]spec.Result, scales []float64) [6]float64 {
	n := 2 * hpm.NumMetrics
	var speedups []float64
	var metric [][]float64
	for _, name := range spec.SortedNames(specBase) {
		rb := specBase[name]
		rt, ok := specTarget[name]
		if !ok {
			continue
		}
		metric = append(metric, refNormalize(refCharacterVector(&rb.ST, &rb.SMT), scales))
		speedups = append(speedups, math.Log(rt.ST.Runtime/rb.ST.Runtime))
	}
	corr := make([]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, len(metric))
		for i := range metric {
			col[i] = metric[i][j]
		}
		corr[j] = math.Abs(correlation(col, speedups))
	}
	var adj [6]float64
	var cnt [6]int
	for j := 0; j < n; j++ {
		grp := hpm.MetricGroupOf(j%hpm.NumMetrics) - 1
		adj[grp] += corr[j]
		cnt[grp]++
	}
	var out [6]float64
	var sum float64
	for gi := range out {
		mean := adj[gi] / float64(cnt[gi])
		out[gi] = groupW[gi] * (0.35 + mean)
		sum += out[gi]
	}
	if sum > 0 {
		for gi := range out {
			out[gi] /= sum
		}
	}
	return out
}

// refSurrogateSpace is surrogateSpaceAt plus groupWeights, the reference
// way.
func refSurrogateSpace(p *Pipeline, cp *CounterPair) (surrogateSpace, [6]float64) {
	s := surrogateSpace{cp: cp, scales: refMetricScales(p.SpecBase)}
	for _, name := range spec.SortedNames(p.SpecBase) {
		if _, ok := p.SpecTarget[name]; ok {
			s.names = append(s.names, name)
		}
	}
	for _, name := range s.names {
		rb := p.SpecBase[name]
		s.pool = append(s.pool, refNormalize(refCharacterVector(&rb.ST, &rb.SMT), s.scales))
	}
	s.appVec = refNormalize(refCharacterVector(&cp.ST, &cp.SMT), s.scales)
	return s, refAdjustWeightsToTarget(groupContributions(&cp.ST), p.SpecBase, p.SpecTarget, s.scales)
}

// sameBits reports whether a and b hold the same float64s, bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// surrogateCase is one characterisation a projection searches from: the
// app's counters at ci on the base machine, against one target's pool.
type surrogateCase struct {
	name string
	p    *Pipeline
	app  *AppModel
	ci   int
}

// figureSurrogateCases are the characterisations of every cell of the
// paper's evaluation (figures -all): each target, benchmark, paper rank
// count and class, characterised at the count Prepare's sweep projects it
// from, with the SPEC pools a pipeline gathers.
func figureSurrogateCases(t *testing.T) []surrogateCase {
	t.Helper()
	hydra := arch.MustGet(arch.Hydra)
	specBase, err := spec.RunSuite(hydra, true)
	if err != nil {
		t.Fatal(err)
	}
	var cases []surrogateCase
	for _, target := range []string{arch.BlueGene, arch.Power6, arch.Westmere} {
		specTarget, err := spec.RunSuite(arch.MustGet(target), true)
		if err != nil {
			t.Fatal(err)
		}
		p := &Pipeline{Base: hydra, SpecBase: specBase, SpecTarget: specTarget}
		for _, b := range nas.Benchmarks() {
			for _, ck := range nas.PaperRankCounts(b) {
				for _, c := range nas.Classes() {
					app := &AppModel{Bench: b, Class: c, Counts: charCountsFor(b, c, ck), Counters: map[int]*CounterPair{}}
					ci := app.nearestCount(ck)
					inst, err := nas.New(nas.Config{Bench: b, Class: c, Ranks: ci})
					if err != nil {
						t.Fatal(err)
					}
					if app.Counters[ci], err = p.measureCounters(inst, ci); err != nil {
						t.Fatal(err)
					}
					cases = append(cases, surrogateCase{name: target + "/" + app.Name(), p: p, app: app, ci: ci})
				}
			}
		}
	}
	return cases
}

// TestSurrogateSpaceMatchesReference holds the one-pass surrogate space —
// its names, scales, pool and app vector — and groupWeights to the
// reference, bit for bit, on every cell of the paper's evaluation and on a
// pool the target shares only part of.
func TestSurrogateSpaceMatchesReference(t *testing.T) {
	cases := figureSurrogateCases(t)
	if len(cases) != 54 {
		t.Fatalf("%d cells, want the evaluation's 54", len(cases))
	}
	// A pool the target shares only part of: the search ranges over the
	// intersection, the scales over the whole base pool.
	c := cases[0]
	shrunk := map[string]spec.Result{}
	for i, name := range spec.SortedNames(c.p.SpecTarget) {
		if i%3 != 1 {
			shrunk[name] = c.p.SpecTarget[name]
		}
	}
	c.name, c.p = "shrunk", &Pipeline{Base: c.p.Base, SpecBase: c.p.SpecBase, SpecTarget: shrunk}
	cases = append(cases, c)

	for _, c := range cases {
		got, err := c.p.surrogateSpaceAt(c.app, c.ci)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gotW := c.p.groupWeights(got)
		want, wantW := refSurrogateSpace(c.p, c.app.Counters[c.ci])
		if len(got.names) != len(want.names) || len(got.pool) != len(want.pool) {
			t.Fatalf("%s: pool of %d (%d names), want %d", c.name, len(got.pool), len(got.names), len(want.pool))
		}
		for i := range want.names {
			if got.names[i] != want.names[i] || !sameBits(got.pool[i], want.pool[i]) {
				t.Errorf("%s: pool member %d is %s %v, want %s %v", c.name, i, got.names[i], got.pool[i], want.names[i], want.pool[i])
			}
		}
		if !sameBits(got.scales, want.scales) || !sameBits(got.appVec, want.appVec) {
			t.Errorf("%s: scales or app vector differ from the reference", c.name)
		}
		if !sameBits(gotW[:], wantW[:]) {
			t.Errorf("%s: group weights %v, want %v", c.name, gotW, wantW)
		}
	}
}

// TestSurrogateSpaceAllocatesPerPool pins that building the search space
// and its group weights allocates per pool, not per benchmark: a
// 10-benchmark pool costs what the full 29-benchmark pool does.
func TestSurrogateSpaceAllocatesPerPool(t *testing.T) {
	c := figureSurrogateCases(t)[0]
	allocs := func(p *Pipeline) float64 {
		return testing.AllocsPerRun(20, func() {
			s, err := p.surrogateSpaceAt(c.app, c.ci)
			if err != nil {
				t.Fatal(err)
			}
			p.groupWeights(s)
		})
	}
	small := &Pipeline{Base: c.p.Base, SpecBase: map[string]spec.Result{}, SpecTarget: map[string]spec.Result{}}
	for _, name := range spec.SortedNames(c.p.SpecBase)[:10] {
		small.SpecBase[name], small.SpecTarget[name] = c.p.SpecBase[name], c.p.SpecTarget[name]
	}
	full, ten := allocs(c.p), allocs(small)
	if len(c.p.SpecBase) != 29 || full != ten {
		t.Errorf("%d-benchmark pool: %.0f allocations, 10-benchmark pool: %.0f; want the same", len(c.p.SpecBase), full, ten)
	}
	t.Logf("%.0f allocations per pool", full)
}
