package ga

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func sphere(target []float64) func([]float64) float64 {
	return func(g []float64) float64 {
		var s float64
		for i := range g {
			d := g[i] - target[i]
			s += d * d
		}
		return s
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{GenomeLen: 4, Seed: "s", Fitness: sphere([]float64{0, 0, 0, 0})}
	cases := []func(*Config){
		func(c *Config) { c.GenomeLen = 0 },
		func(c *Config) { c.Fitness = nil },
		func(c *Config) { c.Seed = "" },
		func(c *Config) { c.PopSize = 2 },
		func(c *Config) { c.PopSize = 8; c.Elites = 8 },
	}
	for i, mutate := range cases {
		c := base
		mutate(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMinimizesSphere(t *testing.T) {
	target := []float64{0.3, 0.7, 0.1, 0.9, 0.5}
	res, err := Run(Config{
		GenomeLen: 5, Seed: "sphere", Generations: 200,
		Fitness: sphere(target),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 0.01 {
		t.Errorf("GA failed to approach target: fitness %v, best %v", res.BestFitness, res.Best)
	}
}

func TestSparseRecovery(t *testing.T) {
	// Fitness rewards matching a 3-sparse combination out of 20 genes —
	// the surrogate-selection shape.
	truthIdx := []int{3, 11, 17}
	truthW := []float64{0.5, 1.2, 0.3}
	fitness := func(g []float64) float64 {
		var s float64
		for i, v := range g {
			want := 0.0
			for k, ti := range truthIdx {
				if i == ti {
					want = truthW[k]
				}
			}
			d := v - want
			s += d * d
		}
		return s
	}
	res, err := Run(Config{
		GenomeLen: 20, MaxActive: 4, Seed: "sparse",
		Generations: 300, PopSize: 96,
		Fitness: fitness,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 0.05 {
		t.Errorf("sparse recovery fitness %v", res.BestFitness)
	}
	// Sparsity must be respected.
	active := 0
	for _, v := range res.Best {
		if v > 0 {
			active++
		}
	}
	if active > 4 {
		t.Errorf("sparsity cap violated: %d active genes", active)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{GenomeLen: 6, Seed: "det", Generations: 40,
		Fitness: sphere([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness {
		t.Fatal("same seed must give identical results")
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatal("same seed must give identical genomes")
		}
	}
	cfg.Seed = "other"
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Best {
		if a.Best[i] != c.Best[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should explore differently")
	}
}

func TestHistoryMonotone(t *testing.T) {
	res, err := Run(Config{GenomeLen: 8, Seed: "hist", Generations: 60,
		Fitness: sphere(make([]float64, 8))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 61 {
		t.Fatalf("history length %d, want 61", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best fitness regressed at generation %d", i)
		}
	}
}

func TestGenomesStayNonNegative(t *testing.T) {
	res, err := Run(Config{GenomeLen: 10, MaxActive: 5, Seed: "nn", Generations: 50,
		Fitness: func(g []float64) float64 {
			for _, v := range g {
				if v < 0 {
					t.Fatal("negative gene passed to fitness")
				}
			}
			return sphere(make([]float64, 10))(g)
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Best {
		if v < 0 {
			t.Fatal("negative gene in result")
		}
	}
}

func TestEvaluationBudget(t *testing.T) {
	res, err := Run(Config{GenomeLen: 4, Seed: "budget", PopSize: 16, Generations: 10, Elites: 2,
		Fitness: sphere(make([]float64, 4))})
	if err != nil {
		t.Fatal(err)
	}
	// At most the initial 16 + 10 generations × (16-2 fresh children):
	// elites are never re-scored.
	max := 16 + 10*14
	if res.Evaluations > max || res.Evaluations < 16 {
		t.Errorf("evaluations = %d, want within [16, %d]", res.Evaluations, max)
	}
}

func TestExplicitZeroRates(t *testing.T) {
	// MutationRate 0 with crossover forced on: children only ever blend
	// parent genes, so no gene can exceed the initial maximum.
	target := []float64{0.5, 0.5, 0.5, 0.5}
	res, err := Run(Config{
		GenomeLen: 4, Seed: "zero-mut", Generations: 30,
		CrossoverRate: Rate(1), MutationRate: Rate(0),
		Fitness: sphere(target),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Best {
		if v < 0 || v >= 1 {
			t.Errorf("blend-only evolution left gene %v outside [0, 1)", v)
		}
	}

	// Both rates 0: pure selection over the initial population — the best
	// genome must be one of the initial individuals, so the history can
	// never improve past entry 0.
	res, err = Run(Config{
		GenomeLen: 6, Seed: "frozen", Generations: 20,
		CrossoverRate: Rate(0), MutationRate: Rate(0),
		Fitness: sphere(make([]float64, 6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.History {
		if h != res.History[0] {
			t.Fatalf("no-variation run improved at generation %d: %v -> %v", i, res.History[0], h)
		}
	}
}

func TestRateValidation(t *testing.T) {
	base := Config{GenomeLen: 4, Seed: "s", Fitness: sphere(make([]float64, 4))}
	for _, bad := range []*float64{Rate(-0.1), Rate(1.5), Rate(math.NaN())} {
		c := base
		c.MutationRate = bad
		if _, err := Run(c); err == nil {
			t.Errorf("MutationRate %v accepted", *bad)
		}
		c = base
		c.CrossoverRate = bad
		if _, err := Run(c); err == nil {
			t.Errorf("CrossoverRate %v accepted", *bad)
		}
	}
}

// Property: enforceSparsity never leaves more than the cap active and never
// creates negatives.
func TestEnforceSparsityProperty(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		g := make([]float64, len(raw))
		for i, r := range raw {
			g[i] = float64(r) / 64
		}
		cap := int(capRaw%8) + 1
		enforceSparsity(g, cap)
		active := 0
		for _, v := range g {
			if v < 0 {
				return false
			}
			if v > 0 {
				active++
			}
		}
		return active <= cap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparsityKeepsLargestGenes(t *testing.T) {
	g := []float64{0.9, 0.1, 0.5, 0, 0.7, 0.2}
	enforceSparsity(g, 3)
	want := []float64{0.9, 0, 0.5, 0, 0.7, 0}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("enforceSparsity = %v, want %v", g, want)
		}
	}
}

// TestFitnessExclusive pins Fitness's contract: Run calls it from one
// goroutine at a time, so an objective may reuse scratch without locking.
func TestFitnessExclusive(t *testing.T) {
	obj := sphere([]float64{0.3, 0, 0.7, 0, 0.1, 0.9})
	var inFlight atomic.Int32
	scratch := make([]float64, 6)
	_, err := Run(Config{
		GenomeLen: 6, MaxActive: 3, Seed: "exclusive", PopSize: 16, Generations: 30,
		Fitness: func(g []float64) float64 {
			if inFlight.Add(1) != 1 {
				t.Error("Fitness called while another call was in flight")
			}
			defer inFlight.Add(-1)
			copy(scratch, g)
			runtime.Gosched()
			return obj(scratch)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocsFlatInGenerations pins that a run sizes every buffer once:
// elitism's heap, the initial population's permutation, the running best
// and History cost the same at 30 generations as at 120.
func TestRunAllocsFlatInGenerations(t *testing.T) {
	obj := sphere(make([]float64, 29))
	allocs := func(gens int) float64 {
		cfg := Config{GenomeLen: 29, MaxActive: 5, Generations: gens, Seed: "allocs", Fitness: obj}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(30), allocs(120)
	if short != long {
		t.Errorf("a run made %.0f allocations at 30 generations and %.0f at 120, want the same", short, long)
	}
	t.Logf("%.0f allocations per run", long)
}
