// Package ga is the genetic algorithm behind SWAPP's surrogate selection
// (§2.3 step 5, citing Holland's classic GA): it searches for the "best"
// group of benchmarks and their coefficients, encoded as a sparse
// non-negative weight vector over the benchmark pool.
//
// The implementation is a plain generational GA — tournament selection,
// blend crossover, Gaussian mutation with activate/deactivate moves for
// sparsity control, and elitism — fully deterministic under a string seed.
//
// Fitness evaluation is the hot path and is embarrassingly parallel, so Run
// scores each generation on a bounded worker pool (Config.Workers). The
// result is byte-identical to the serial path: every candidate genome is
// generated serially from the seeded RNG first, and only then scored
// concurrently, so the RNG stream — and therefore the evolution — never
// depends on scheduling. Every genome handed to the evaluator is scored —
// fitness is pure, so the few duplicates just score the same again — which
// keeps Result.Evaluations independent of the worker count too.
package ga

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/par"
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
	// Fitness scores a genome; lower is better. Genomes are always
	// non-negative. Exactly one of Fitness and FitnessW is required. It
	// must be a pure function of the genome and safe for concurrent calls
	// when Workers != 1.
	Fitness func(genome []float64) float64
	// FitnessW is Fitness with the evaluation slot passed in: slot
	// identifies which of the pool's workers is calling, numbered
	// 0..par.Workers(Workers)-1 (always 0 when Workers is 1). It lets an
	// objective with per-call scratch — like core's EvalKernel — keep one
	// scratch arena per slot instead of locking or allocating. The same
	// purity and concurrency-safety rules as Fitness apply; the slot must
	// not influence the returned score.
	FitnessW func(slot int, genome []float64) float64
	// Workers bounds the fitness-evaluation pool: 0 (the default) means
	// runtime.GOMAXPROCS(0), 1 selects the legacy serial path. The
	// result is identical for every value.
	Workers int
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
	if c.Fitness == nil && c.FitnessW == nil {
		return c, fmt.Errorf("ga: Fitness (or FitnessW) is required")
	}
	if c.Fitness != nil && c.FitnessW != nil {
		return c, fmt.Errorf("ga: Fitness and FitnessW are mutually exclusive")
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
	// every generation's children (elites carry their score). It does not
	// depend on Workers.
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

// evaluator scores genome batches on a worker pool. It is used from a
// single goroutine; only the fitness calls it issues run concurrently.
type evaluator struct {
	fn          func(slot int, g []float64) float64
	workers     int
	evals       int
	quarantined atomic.Int64
	obs         *obs.Scope

	batch [][]float64 // the genomes being scored
	out   []float64   // their scores; reused across batches
	// scoreOne scores batch[i] into out[i] on pool slot w. Built once per
	// evaluator: a closure literal per batch would escape to the heap.
	scoreOne func(w, i int) error
}

func newEvaluator(fn func(slot int, g []float64) float64, workers int, sp *obs.Scope) *evaluator {
	e := &evaluator{fn: fn, workers: workers, obs: sp}
	e.scoreOne = func(w, i int) error {
		e.out[i] = e.safeScore(w, e.batch[i])
		return nil
	}
	return e
}

// safeScore scores one genome, quarantining failures: a panicking fitness
// function (or an armed "ga.eval" fault) yields +Inf — the worst score
// under minimisation — so one bad chromosome cannot kill the whole search.
func (e *evaluator) safeScore(slot int, g []float64) (f float64) {
	defer func() {
		if v := recover(); v != nil {
			e.quarantined.Add(1)
			f = math.Inf(1)
		}
	}()
	if err := faultinject.Fire("ga.eval"); err != nil {
		e.quarantined.Add(1)
		return math.Inf(1)
	}
	return e.fn(slot, g)
}

// scoreAll returns the fitness of each genome, scored concurrently on the
// pool (inline on slot 0 when workers <= 1 — the legacy serial path);
// workers write disjoint elements. The returned slice is the evaluator's
// reusable scratch: it is valid until the next scoreAll call.
func (e *evaluator) scoreAll(genomes [][]float64) []float64 {
	e.evals += len(genomes)
	// Batch-level counter only: the per-evaluation hot path stays
	// untouched, so the disabled layer costs one nil check per batch.
	e.obs.Count("ga.evaluations", int64(len(genomes)))
	if cap(e.out) < len(genomes) {
		e.out = make([]float64, len(genomes))
	}
	e.batch, e.out = genomes, e.out[:len(genomes)]
	_ = par.ForEachW(e.workers, len(genomes), e.scoreOne)
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

	src := rng.New("ga|" + cfg.Seed)
	res := &Result{}
	var sparsityScratch []gene
	fn := cfg.FitnessW
	if fn == nil {
		plain := cfg.Fitness
		fn = func(_ int, g []float64) float64 { return plain(g) }
	}
	ev := newEvaluator(fn, par.Workers(cfg.Workers), sp)

	// Genomes live in two flat ping-pong arenas: each generation's
	// population is carved out of one arena while its parents occupy the
	// other, so a whole run's populations cost two allocations instead of
	// PopSize×Generations. Anything that outlives a generation — the
	// running best, the returned Result — is cloned out of the arenas.
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
	// Initial population: sparse random genomes, generated serially from
	// the seeded RNG, then scored as one batch.
	for i := range genomes {
		g := carve(cur, i)
		active := cfg.MaxActive
		if active <= 0 || active > cfg.GenomeLen {
			active = cfg.GenomeLen
		}
		// Activate a random subset with random weights.
		n := 1 + src.Intn(active)
		for _, idx := range src.Perm(cfg.GenomeLen)[:n] {
			g[idx] = src.Float64()
		}
		genomes[i] = g
	}
	fits := ev.scoreAll(genomes)
	for i := range pop {
		pop[i] = individual{genome: genomes[i], fitness: fits[i]}
	}

	// The running best is cloned out of the arena: its slot will be
	// overwritten two generations later.
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
		for _, e := range topK(pop, cfg.Elites) {
			g := carve(nextArena, len(next))
			copy(g, e.genome)
			next = append(next, individual{genome: g, fitness: e.fitness})
		}
		// Generate every child serially first (the RNG stream must not
		// depend on evaluation scheduling), then score them as a batch.
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
			best = individual{genome: clone(b.genome), fitness: b.fitness}
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
	res.Quarantined = int(ev.quarantined.Load())
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

// topK returns the k fittest individuals in ascending (fitness, index)
// order. Exact fitness ties are common — elitism and children that escape
// both crossover and mutation fill the population with duplicates — so the
// tie-break on position is part of the function's contract: the replaced
// selection sort broke ties by its own swap history, which was
// deterministic but not meaningful.
func topK(pop []individual, k int) []individual {
	if k > len(pop) {
		k = len(pop)
	}
	if k == 0 {
		return nil
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
	heap := make([]int, 0, k)
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
	out := make([]individual, len(heap))
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
