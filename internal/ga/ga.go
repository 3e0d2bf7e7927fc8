// Package ga is the genetic algorithm behind SWAPP's surrogate selection
// (§2.3 step 5, citing Holland's classic GA): it searches for the "best"
// group of benchmarks and their coefficients, encoded as a sparse
// non-negative weight vector over the benchmark pool.
//
// The implementation is a plain generational GA — tournament selection,
// blend crossover, Gaussian mutation with activate/deactivate moves for
// sparsity control, and elitism — fully deterministic under a string seed.
//
// Run is serial: each generation's children are generated from the seeded
// RNG first, then scored in order on Run's own goroutine, so Fitness may
// keep scratch of its own. Parallelism lives one level up: core runs
// independently seeded ensemble members side by side. Every genome handed
// to the evaluator is scored (fitness is pure, so the few duplicates just
// score the same again).
package ga

import (
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Config parameterises a run. Fitness is minimised.
type Config struct {
	// GenomeLen is the number of genes (benchmark pool size).
	GenomeLen int
	// MaxActive caps the number of nonzero genes (surrogate sparsity);
	// 0 means unlimited.
	MaxActive int
	// PopSize is the population size (default 64).
	PopSize int
	// Generations to evolve (default 120).
	Generations int
	// Elites survive unchanged each generation (default 2).
	Elites int
	// TournamentK is the selection tournament size (default 3).
	TournamentK int
	// CrossoverRate is the probability of blending two parents. nil means
	// the default 0.9; use Rate(0) to disable crossover entirely (a plain
	// 0 cannot express that — the zero value selects the default).
	CrossoverRate *float64
	// MutationRate is the per-gene perturbation probability. nil means
	// the default 0.15; use Rate(0) to disable mutation entirely.
	MutationRate *float64
	// Seed makes the run reproducible; required.
	Seed string
	// Fitness scores a genome; lower is better; required. Genomes are
	// always non-negative. It must be a pure function of the genome. It is
	// called from one goroutine at a time, so it may reuse scratch.
	Fitness func(genome []float64) float64
	// OnGeneration, when non-nil, observes the run: it is called once per
	// evolved generation — after the generation's children are scored —
	// with the generation index and the running best fitness. It is called
	// from Run's own goroutine, strictly passive: the evolution is
	// byte-identical with the callback set or nil. This is the progress
	// tap for async job streaming.
	OnGeneration func(gen int, best float64)
	// Obs, when non-nil, receives a "ga.run" span and the run's metrics
	// (ga.evaluations, ga.generations, ga.best_fitness,
	// ga.generation_seconds). Observability never alters the evolution:
	// the result is byte-identical with Obs set or nil.
	Obs *obs.Scope
}

// Rate wraps a rate value for Config.CrossoverRate / Config.MutationRate,
// making an explicit zero distinguishable from "unset, use the default".
func Rate(v float64) *float64 { return &v }

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.GenomeLen <= 0 {
		return c, fmt.Errorf("ga: GenomeLen must be positive")
	}
	if c.Fitness == nil {
		return c, fmt.Errorf("ga: Fitness is required")
	}
	if c.Seed == "" {
		return c, fmt.Errorf("ga: Seed is required for reproducibility")
	}
	if c.PopSize == 0 {
		c.PopSize = 64
	}
	if c.Generations == 0 {
		c.Generations = 120
	}
	if c.Elites == 0 {
		c.Elites = 2
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.CrossoverRate == nil {
		c.CrossoverRate = Rate(0.9)
	}
	if c.MutationRate == nil {
		c.MutationRate = Rate(0.15)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"CrossoverRate", *c.CrossoverRate}, {"MutationRate", *c.MutationRate}} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return c, fmt.Errorf("ga: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.PopSize < 4 || c.Elites >= c.PopSize || c.TournamentK < 1 {
		return c, fmt.Errorf("ga: degenerate population configuration")
	}
	return c, nil
}

// Result is the outcome of a run.
type Result struct {
	// Best is the fittest genome found.
	Best []float64
	// BestFitness is its score.
	BestFitness float64
	// History records the best score per generation (including the
	// initial population as entry 0).
	History []float64
	// Evaluations counts the scores requested: the initial population plus
	// every generation's children (elites carry their score).
	Evaluations int
	// Quarantined counts fitness evaluations that panicked (or were
	// fault-injected to fail) and were scored +Inf — the worst possible
	// fitness under minimisation — instead of killing the run. The
	// offending genome stays in the population but cannot win selection.
	Quarantined int
}

// individual pairs a genome with its cached score.
type individual struct {
	genome  []float64
	fitness float64
}

// evaluator scores genome batches in order and counts what it scored.
type evaluator struct {
	fn          func(g []float64) float64
	evals       int
	quarantined int
	obs         *obs.Scope
	out         []float64 // the batch's scores; reused across batches
}

// safeScore scores one genome, quarantining failures: a panicking fitness
// function (or an armed "ga.eval" fault) yields +Inf — the worst score
// under minimisation — so one bad chromosome cannot kill the whole search.
func (e *evaluator) safeScore(g []float64) (f float64) {
	defer func() {
		if v := recover(); v != nil {
			e.quarantined++
			f = math.Inf(1)
		}
	}()
	if err := faultinject.Fire("ga.eval"); err != nil {
		e.quarantined++
		return math.Inf(1)
	}
	return e.fn(g)
}

// scoreAll returns the fitness of each genome; out must hold the batch.
// The returned slice is the evaluator's reusable scratch: it is valid until
// the next scoreAll call.
func (e *evaluator) scoreAll(genomes [][]float64) []float64 {
	e.evals += len(genomes)
	// Batch-level counter only: the per-evaluation hot path stays
	// untouched, so the disabled layer costs one nil check per batch.
	e.obs.Count("ga.evaluations", int64(len(genomes)))
	e.out = e.out[:len(genomes)]
	for i, g := range genomes {
		e.out[i] = e.safeScore(g)
	}
	return e.out
}

// Run evolves a population and returns the best genome found.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sp := cfg.Obs.Child("ga.run")
	defer sp.End()

	src := rng.New("ga|", cfg.Seed)
	// Every buffer is sized here, once: a run's allocations do not grow
	// with its generations.
	res := &Result{History: make([]float64, 0, cfg.Generations+1)}
	sparsityScratch := make([]gene, 0, cfg.GenomeLen)
	var elite topKScratch
	// The initial population is the largest batch, so out is sized once.
	ev := &evaluator{fn: cfg.Fitness, obs: sp, out: make([]float64, cfg.PopSize)}

	// Genomes live in two flat ping-pong arenas: each generation's
	// population is carved out of one arena while its parents occupy the
	// other, so a whole run's populations cost two allocations instead of
	// PopSize×Generations. The running best outlives its generation, so it
	// lives in a buffer of its own, which becomes res.Best.
	var arenas [2][]float64
	arenas[0] = make([]float64, cfg.PopSize*cfg.GenomeLen)
	arenas[1] = make([]float64, cfg.PopSize*cfg.GenomeLen)
	carve := func(arena int, i int) []float64 {
		g := arenas[arena][i*cfg.GenomeLen : (i+1)*cfg.GenomeLen]
		for j := range g {
			g[j] = 0
		}
		return g
	}
	cur := 0

	genomes := make([][]float64, cfg.PopSize)
	pop := make([]individual, cfg.PopSize)
	perm := make([]int, cfg.GenomeLen)
	// Initial population: sparse random genomes from the seeded RNG,
	// scored as one batch.
	for i := range genomes {
		g := carve(cur, i)
		active := cfg.MaxActive
		if active <= 0 || active > cfg.GenomeLen {
			active = cfg.GenomeLen
		}
		// Activate a random subset with random weights.
		n := 1 + src.Intn(active)
		src.PermInto(perm)
		for _, idx := range perm[:n] {
			g[idx] = src.Float64()
		}
		genomes[i] = g
	}
	fits := ev.scoreAll(genomes)
	for i := range pop {
		pop[i] = individual{genome: genomes[i], fitness: fits[i]}
	}

	// The running best's arena slot will be overwritten two generations
	// later; this clone is the one buffer it is copied into from now on.
	b0 := bestOf(pop)
	best := individual{genome: clone(b0.genome), fitness: b0.fitness}
	res.History = append(res.History, best.fitness)

	next := make([]individual, 0, cfg.PopSize)
	children := make([][]float64, 0, cfg.PopSize)
	obsOn := sp.Enabled()
	for gen := 0; gen < cfg.Generations; gen++ {
		var genStart time.Time
		if obsOn {
			genStart = time.Now()
		}
		nextArena := 1 - cur
		next = next[:0]
		// Elitism: copy the best unchanged — their fitness travels with
		// them, so elites are never re-scored.
		for _, e := range elite.topK(pop, cfg.Elites) {
			g := carve(nextArena, len(next))
			copy(g, e.genome)
			next = append(next, individual{genome: g, fitness: e.fitness})
		}
		// Generate every child first, then score them as a batch.
		children = children[:0]
		for len(next)+len(children) < cfg.PopSize {
			a := tournament(pop, cfg.TournamentK, src)
			b := tournament(pop, cfg.TournamentK, src)
			child := carve(nextArena, len(next)+len(children))
			copy(child, a.genome)
			if src.Float64() < *cfg.CrossoverRate {
				blend(child, b.genome, src)
			}
			mutate(child, cfg, src)
			sparsityScratch = enforceSparsityScratch(child, cfg.MaxActive, sparsityScratch[:0])
			children = append(children, child)
		}
		for i, f := range ev.scoreAll(children) {
			next = append(next, individual{genome: children[i], fitness: f})
		}
		pop, next = next, pop
		cur = nextArena
		if b := bestOf(pop); b.fitness < best.fitness {
			copy(best.genome, b.genome)
			best.fitness = b.fitness
		}
		res.History = append(res.History, best.fitness)
		if cfg.OnGeneration != nil {
			cfg.OnGeneration(gen, best.fitness)
		}
		if obsOn {
			// Per-generation stats: wall time and running best, both
			// order-independent aggregates.
			sp.Count("ga.generations", 1)
			sp.Observe("ga.generation_seconds", time.Since(genStart).Seconds())
			sp.Observe("ga.generation_best", best.fitness)
		}
	}
	res.Best = best.genome
	res.BestFitness = best.fitness
	res.Evaluations = ev.evals
	res.Quarantined = ev.quarantined
	if res.Quarantined > 0 {
		sp.Count("ga.quarantined", int64(res.Quarantined))
	}
	sp.Observe("ga.best_fitness", res.BestFitness)
	return res, nil
}

// clone copies a genome.
func clone(g []float64) []float64 { return append([]float64(nil), g...) }

// bestOf returns the fittest individual.
func bestOf(pop []individual) individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fitness < best.fitness {
			best = ind
		}
	}
	return best
}

// topKScratch is topK's working memory — the heap and the result — grown on
// first use and reused after, so a run's elitism allocates once, not once
// per generation.
type topKScratch struct {
	heap []int
	out  []individual
}

// topK returns the k fittest individuals in ascending (fitness, index)
// order. Exact fitness ties are common — elitism and children that escape
// both crossover and mutation fill the population with duplicates — so the
// tie-break on position is part of the function's contract: the replaced
// selection sort broke ties by its own swap history, which was
// deterministic but not meaningful. The result is s's scratch: it is valid
// until the next topK call.
func (s *topKScratch) topK(pop []individual, k int) []individual {
	if k > len(pop) {
		k = len(pop)
	}
	if k == 0 {
		return nil
	}
	if cap(s.heap) < k {
		s.heap, s.out = make([]int, 0, k), make([]individual, k)
	}
	// worse orders individuals by (fitness, index): a is worse than b when
	// it would be evicted first from the elite set.
	worse := func(a, b int) bool {
		if pop[a].fitness != pop[b].fitness {
			return pop[a].fitness > pop[b].fitness
		}
		return a > b
	}
	// Bounded max-heap of the k best seen so far: O(n log k) against the
	// old O(n·k) selection scan, and no sort.Slice interface overhead.
	heap := s.heap[:0]
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heap) && worse(heap[l], heap[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(heap) && worse(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := range pop {
		if len(heap) < k {
			heap = append(heap, i)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(heap[c], heap[p]) {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
		} else if worse(heap[0], i) {
			heap[0] = i
			down(0)
		}
	}
	// Pop worst-first to fill the result in ascending (fitness, index)
	// order — exactly what a full sort-and-truncate would return.
	out := s.out[:len(heap)]
	for n := len(heap) - 1; n >= 0; n-- {
		out[n] = pop[heap[0]]
		heap[0] = heap[n]
		heap = heap[:n]
		down(0)
	}
	return out
}

// tournament picks the best of k random individuals.
func tournament(pop []individual, k int, src *rng.Source) individual {
	best := pop[src.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[src.Intn(len(pop))]
		if c.fitness < best.fitness {
			best = c
		}
	}
	return best
}

// blend mixes parent b into child gene-wise with random weights.
func blend(child, b []float64, src *rng.Source) {
	for i := range child {
		if src.Float64() < 0.5 {
			f := src.Float64()
			child[i] = child[i]*(1-f) + b[i]*f
		}
	}
}

// mutate perturbs genes: Gaussian scaling of active genes, plus occasional
// activation of dormant ones and deactivation of active ones.
func mutate(g []float64, cfg Config, src *rng.Source) {
	for i := range g {
		if src.Float64() >= *cfg.MutationRate {
			continue
		}
		switch {
		case g[i] == 0:
			g[i] = src.Float64() * 0.5 // activate
		case src.Float64() < 0.2:
			g[i] = 0 // deactivate
		default:
			g[i] *= math.Exp(src.Normal(0, 0.3))
			if g[i] < 1e-6 {
				g[i] = 0
			}
		}
	}
}

// gene pairs a nonzero gene value with its index, for sparsity sorting.
type gene struct {
	v float64
	i int
}

// enforceSparsity keeps only the maxActive largest genes: one sort of the
// nonzero entries (value ascending, index breaking ties) and the overflow
// is zeroed smallest-first — the same survivors as the repeated
// minimum-scan this replaces, in O(n log n) instead of O(n·overflow).
func enforceSparsity(g []float64, maxActive int) {
	enforceSparsityScratch(g, maxActive, nil)
}

// enforceSparsityScratch is enforceSparsity with a caller-owned scratch
// buffer, so the per-child nonzero list costs nothing on the GA's hot
// path. It returns the (possibly grown) scratch for reuse.
func enforceSparsityScratch(g []float64, maxActive int, scratch []gene) []gene {
	if maxActive <= 0 {
		return scratch
	}
	nz := scratch[:0]
	for i, v := range g {
		if v > 0 {
			nz = append(nz, gene{v, i})
		}
	}
	if len(nz) <= maxActive {
		return nz
	}
	// Insertion sort on (value, index): the comparator is a total order,
	// so the result is the unique sorted permutation — identical to any
	// correct sort — and the nonzero list is tiny (bounded by the genome
	// length, typically a handful over MaxActive), where insertion sort
	// beats sort.Slice and skips its per-call reflection allocations.
	for i := 1; i < len(nz); i++ {
		x := nz[i]
		j := i - 1
		for j >= 0 && (nz[j].v > x.v || (nz[j].v == x.v && nz[j].i > x.i)) {
			nz[j+1] = nz[j]
			j--
		}
		nz[j+1] = x
	}
	for _, z := range nz[:len(nz)-maxActive] {
		g[z.i] = 0
	}
	return nz
}
