package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ga"
	"repro/internal/rng"
)

// benchKernelFixture builds a kernel at the production shape: the SPEC
// pool (~29 benchmarks) over the 26×2-entry character vector, and a cycle
// of sparse MaxActive-style genomes.
func benchKernelFixture(benches, metrics int) (*EvalKernel, [][]float64) {
	src := rng.New(fmt.Sprintf("bench-kernel-%dx%d", benches, metrics))
	pool := make([][]float64, benches)
	for k := range pool {
		row := make([]float64, metrics)
		for j := range row {
			row[j] = src.Float64() * 3
		}
		pool[k] = row
	}
	app := make([]float64, metrics)
	weights := make([]float64, metrics)
	for j := range app {
		app[j] = src.Float64() * 3
		weights[j] = src.Float64()
	}
	genomes := make([][]float64, 64)
	for i := range genomes {
		g := make([]float64, benches)
		for _, idx := range src.Perm(benches)[:1+src.Intn(5)] {
			g[idx] = src.Float64()
		}
		genomes[i] = g
	}
	return NewEvalKernel(pool, app, weights, 1.0), genomes
}

// BenchmarkKernel is the per-genome objective: one EvalKernel.Objective
// call on a surrogate-search-shaped problem. TestKernelObjectiveZeroAllocs
// holds its allocs/op at 0.
func BenchmarkKernel(b *testing.B) {
	kern, genomes := benchKernelFixture(29, 52)
	scratch := kern.NewScratch()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += kern.Objective(genomes[i%len(genomes)], scratch)
	}
	_ = sink
}

// BenchmarkSearch is one surrogate search at the production shape: the
// ga.Config ensembleConfigs builds — defaults for the population,
// surrogateGenerations generations, MaxActive surrogateMaxSize — scoring
// BenchmarkKernel's objective, run unsliced. Its allocs/op are the
// search's own and do not grow with Generations
// (ga.TestRunAllocsFlatInGenerations).
func BenchmarkSearch(b *testing.B) {
	kern, _ := benchKernelFixture(29, 52)
	cfg := benchSearchConfig(kern, "bench-search")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unslicedSearch(b, cfg)
	}
}

// benchSearchConfig is the ga.Config of one member of the production
// search over kern's objective, with a scratch row of its own.
func benchSearchConfig(kern *EvalKernel, seed string) ga.Config {
	scratch := kern.NewScratch()
	return ga.Config{
		GenomeLen:   29,
		MaxActive:   surrogateMaxSize,
		Generations: surrogateGenerations,
		Seed:        seed,
		Fitness: func(genome []float64) float64 {
			return kern.Objective(genome, scratch)
		},
	}
}

// unslicedSearch runs a search in one stretch: Start, every generation,
// Result.
func unslicedSearch(tb testing.TB, cfg ga.Config) *ga.Result {
	s, err := ga.Start(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Evolve(math.MaxInt)
	return s.Result()
}

// TestKernelObjectiveZeroAllocs pins the GA's inner loop at zero
// allocations per genome, on BenchmarkKernel's fixture.
func TestKernelObjectiveZeroAllocs(t *testing.T) {
	kern, genomes := benchKernelFixture(29, 52)
	scratch := kern.NewScratch()
	var sink float64
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		sink += kern.Objective(genomes[i%len(genomes)], scratch)
		i++
	}); n != 0 {
		t.Errorf("EvalKernel.Objective allocates %v times per call, want 0", n)
	}
	_ = sink
}
