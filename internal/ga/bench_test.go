package ga

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// naiveEnforceSparsity is the O(n·overflow) loop the sort-based
// enforceSparsityScratch replaced: repeatedly scan for the smallest nonzero gene
// and zero it. Kept as the micro-benchmark baseline and as an oracle for
// TestEnforceSparsityMatchesNaive.
func naiveEnforceSparsity(g []float64, maxActive int) {
	if maxActive <= 0 {
		return
	}
	active := 0
	for _, v := range g {
		if v > 0 {
			active++
		}
	}
	for active > maxActive {
		minIdx := -1
		for i, v := range g {
			if v > 0 && (minIdx < 0 || v < g[minIdx]) {
				minIdx = i
			}
		}
		g[minIdx] = 0
		active--
	}
}

// naiveTopK is the replaced O(n·k) selection sort, fitness-only ordering.
func naiveTopK(pop []individual, k int) []individual {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k && i < len(idx); i++ {
		m := i
		for j := i + 1; j < len(idx); j++ {
			if pop[idx[j]].fitness < pop[idx[m]].fitness {
				m = j
			}
		}
		idx[i], idx[m] = idx[m], idx[i]
	}
	out := make([]individual, 0, k)
	for i := 0; i < k && i < len(idx); i++ {
		out = append(out, pop[idx[i]])
	}
	return out
}

func TestEnforceSparsityMatchesNaive(t *testing.T) {
	src := rng.New("sparsity-oracle")
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(40)
		g := make([]float64, n)
		for i := range g {
			if src.Float64() < 0.7 {
				g[i] = src.Float64()
			}
		}
		cap := 1 + src.Intn(8)
		a := append([]float64(nil), g...)
		b := append([]float64(nil), g...)
		enforceSparsityScratch(a, cap, nil)
		naiveEnforceSparsity(b, cap)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d cap %d: divergence at %d:\n got %v\nwant %v", trial, cap, i, a, b)
			}
		}
	}
}

func TestTopKMatchesNaiveFitnessSet(t *testing.T) {
	// Tie-breaking differs (topK is position-stable, the selection sort
	// was not), so compare the multiset of fitness values, which both must
	// agree on, plus topK's own ordering guarantee.
	// One scratch for every trial, as a run reuses it across generations:
	// k grows and shrinks between trials.
	var s topKScratch
	src := rng.New("topk-oracle")
	for trial := 0; trial < 100; trial++ {
		n := 4 + src.Intn(60)
		pop := make([]individual, n)
		for i := range pop {
			// Coarse fitness values to force ties.
			pop[i] = individual{fitness: float64(src.Intn(8))}
		}
		k := 1 + src.Intn(n)
		a := s.topK(pop, k)
		if len(a) != k {
			t.Fatalf("trial %d: topK returned %d individuals, want %d", trial, len(a), k)
		}
		b := naiveTopK(pop, k)
		for i := range a {
			if a[i].fitness != b[i].fitness {
				t.Fatalf("trial %d k=%d: fitness[%d] %v != naive %v", trial, k, i, a[i].fitness, b[i].fitness)
			}
			if i > 0 && a[i].fitness < a[i-1].fitness {
				t.Fatalf("trial %d: topK output not sorted", trial)
			}
		}
	}
}

// sparseGenome builds a dense-ish random genome of length n.
func sparseGenome(n int, key string) []float64 {
	src := rng.New(key)
	g := make([]float64, n)
	for i := range g {
		if src.Float64() < 0.8 {
			g[i] = src.Float64()
		}
	}
	return g
}

func benchSparsity(b *testing.B, n int, fn func([]float64, int)) {
	g := sparseGenome(n, fmt.Sprintf("bench-sparsity-%d", n))
	buf := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, g)
		fn(buf, 5)
	}
}

// sortSparsity is the sort-based enforcement with no scratch buffer.
func sortSparsity(g []float64, maxActive int) { enforceSparsityScratch(g, maxActive, nil) }

func BenchmarkEnforceSparsity_n64(b *testing.B)      { benchSparsity(b, 64, sortSparsity) }
func BenchmarkEnforceSparsityNaive_n64(b *testing.B) { benchSparsity(b, 64, naiveEnforceSparsity) }
func BenchmarkEnforceSparsity_n1024(b *testing.B)    { benchSparsity(b, 1024, sortSparsity) }
func BenchmarkEnforceSparsityNaive_n1024(b *testing.B) {
	benchSparsity(b, 1024, naiveEnforceSparsity)
}

func benchTopK(b *testing.B, n, k int, fn func([]individual, int) []individual) {
	src := rng.New(fmt.Sprintf("bench-topk-%d", n))
	pop := make([]individual, n)
	for i := range pop {
		pop[i] = individual{fitness: src.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(pop, k)
	}
}

func BenchmarkTopK_n1024k32(b *testing.B)      { benchTopK(b, 1024, 32, new(topKScratch).topK) }
func BenchmarkTopKNaive_n1024k32(b *testing.B) { benchTopK(b, 1024, 32, naiveTopK) }

// heavyFitness emulates the surrogate-search fitness shape: a weighted
// distance over a pool of metric vectors.
func heavyFitness(poolSize, dims int) func([]float64) float64 {
	pool := make([][]float64, poolSize)
	for k := range pool {
		pool[k] = sparseGenome(dims, fmt.Sprintf("pool-%d", k))
	}
	return func(g []float64) float64 {
		var s float64
		for k, w := range g {
			if w == 0 {
				continue
			}
			for _, v := range pool[k%poolSize] {
				d := w - v
				s += d * d * math.Sqrt(1+d*d)
			}
		}
		return s
	}
}

// BenchmarkRunSerial is one search at the surrogate-search shape.
func BenchmarkRunSerial(b *testing.B) {
	cfg := Config{
		GenomeLen: 29, MaxActive: 5,
		PopSize: 64, Generations: 30,
		Seed:    "bench-ga",
		Fitness: heavyFitness(29, 512),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScoreAllBatches pre-generates sparse genome batches at the
// generation shape (PopSize−Elites children of GenomeLen 29).
func benchScoreAllBatches(nBatches, batch, genomeLen int) [][][]float64 {
	src := rng.New("bench-scoreall")
	out := make([][][]float64, nBatches)
	for bi := range out {
		gs := make([][]float64, batch)
		for i := range gs {
			g := make([]float64, genomeLen)
			for _, idx := range src.Perm(genomeLen)[:1+src.Intn(5)] {
				g[idx] = src.Float64()
			}
			gs[i] = g
		}
		out[bi] = gs
	}
	return out
}

// cheapFitness stands in for the EvalKernel objective: a few flops, no
// allocations — so the benchmark measures scoreAll's own overhead
// (dispatch, readback), not the objective.
func cheapFitness(g []float64) float64 {
	var s float64
	for i, v := range g {
		s += v * float64(i+1)
	}
	return s
}

func newBenchEvaluator() *evaluator {
	return &evaluator{fn: cheapFitness, out: make([]float64, 62)}
}

// BenchmarkScoreAll measures one evaluator batch at the generation shape.
func BenchmarkScoreAll(b *testing.B) {
	batches := benchScoreAllBatches(16, 62, 29)
	ev := newBenchEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.scoreAll(batches[i%len(batches)])
	}
}

// TestScoreAllSteadyStateAllocs pins a batch on a warmed evaluator at zero
// allocations: the out scratch is reused.
func TestScoreAllSteadyStateAllocs(t *testing.T) {
	batches := benchScoreAllBatches(16, 62, 29)
	ev := newBenchEvaluator()
	ev.scoreAll(batches[0])
	i := 1
	if n := testing.AllocsPerRun(200, func() {
		ev.scoreAll(batches[i%len(batches)])
		i++
	}); n != 0 {
		t.Errorf("scoreAll on a warmed evaluator allocates %v times, want 0", n)
	}
}
