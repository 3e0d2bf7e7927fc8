package ga

import (
	"math"
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

func TestParallelMatchesSerial(t *testing.T) {
	// The determinism contract: Workers must not change anything — Best,
	// BestFitness, History and Evaluations are byte-identical because
	// genomes are generated serially and scored as a batch.
	for _, seed := range []string{"par-a", "par-b", "par-c", "par-d"} {
		base := Config{
			GenomeLen: 12, MaxActive: 5, Seed: seed,
			PopSize: 32, Generations: 40,
			Fitness: sphere([]float64{0.1, 0, 0.3, 0, 0.5, 0, 0.7, 0, 0.2, 0, 0.4, 0}),
		}
		serial := base
		serial.Workers = 1
		want, err := Run(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg := base
			cfg.Workers = workers
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestFitness != want.BestFitness {
				t.Fatalf("seed %q workers %d: BestFitness %v != serial %v",
					seed, workers, got.BestFitness, want.BestFitness)
			}
			if got.Evaluations != want.Evaluations {
				t.Fatalf("seed %q workers %d: Evaluations %d != serial %d",
					seed, workers, got.Evaluations, want.Evaluations)
			}
			for i := range want.Best {
				if got.Best[i] != want.Best[i] {
					t.Fatalf("seed %q workers %d: Best[%d] differs", seed, workers, i)
				}
			}
			if len(got.History) != len(want.History) {
				t.Fatalf("seed %q workers %d: history length differs", seed, workers)
			}
			for i := range want.History {
				if got.History[i] != want.History[i] {
					t.Fatalf("seed %q workers %d: History[%d] %v != %v",
						seed, workers, i, got.History[i], want.History[i])
				}
			}
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

// TestFitnessWEquivalence: routing the same objective through FitnessW
// (slot-aware) must reproduce the Fitness path byte for byte, at every
// worker count, with slots staying in range.
func TestFitnessWEquivalence(t *testing.T) {
	obj := sphere([]float64{0.3, 0, 0.7, 0, 0.1, 0.9})
	base := Config{
		GenomeLen: 6, MaxActive: 3, Seed: "fitnessw", PopSize: 16, Generations: 30,
		Fitness: obj,
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Fitness = nil
		cfg.Workers = workers
		maxSlot := workers
		cfg.FitnessW = func(slot int, g []float64) float64 {
			if slot < 0 || slot >= maxSlot {
				t.Errorf("slot %d outside [0,%d)", slot, maxSlot)
			}
			return obj(g)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.BestFitness) != math.Float64bits(want.BestFitness) {
			t.Errorf("workers=%d: FitnessW best %v != Fitness best %v", workers, got.BestFitness, want.BestFitness)
		}
		if got.Evaluations != want.Evaluations {
			t.Errorf("workers=%d: evaluations %d != %d", workers, got.Evaluations, want.Evaluations)
		}
	}
}

// TestFitnessExclusive: setting both objectives is a config error.
func TestFitnessExclusive(t *testing.T) {
	_, err := Run(Config{
		GenomeLen: 2, Seed: "s",
		Fitness:  func(g []float64) float64 { return 0 },
		FitnessW: func(_ int, g []float64) float64 { return 0 },
	})
	if err == nil {
		t.Fatal("Run accepted both Fitness and FitnessW")
	}
}
