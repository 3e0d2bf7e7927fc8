package ga

import (
	"math"
	"testing"
)

// TestOnGenerationPassive pins the progress tap's contract: the callback
// fires once per evolved generation with the running best, the reported
// fitness matches History, and the run's result is byte-identical to the
// same configuration without the callback.
func TestOnGenerationPassive(t *testing.T) {
	base := Config{
		GenomeLen: 10, MaxActive: 3,
		PopSize: 32, Generations: 30,
		Seed:    "progress-det",
		Fitness: sphere([]float64{0.4, 0, 0.1, 0, 0, 0, 0.8, 0, 0, 0}),
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	type obsGen struct {
		gen  int
		best float64
	}
	var seen []obsGen
	tapped := base
	tapped.OnGeneration = func(gen int, best float64) {
		seen = append(seen, obsGen{gen, best})
	}
	res, err := Run(tapped)
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(res.BestFitness) != math.Float64bits(ref.BestFitness) {
		t.Errorf("best fitness with tap %v != without %v", res.BestFitness, ref.BestFitness)
	}
	for i := range ref.Best {
		if math.Float64bits(res.Best[i]) != math.Float64bits(ref.Best[i]) {
			t.Errorf("gene %d = %v with tap, %v without", i, res.Best[i], ref.Best[i])
		}
	}
	if len(seen) != base.Generations {
		t.Fatalf("callback fired %d times, ran %d generations", len(seen), base.Generations)
	}
	for i, o := range seen {
		if o.gen != i {
			t.Errorf("callback %d reported generation %d", i, o.gen)
		}
		// History[0] is the initial population; generation g lands at g+1.
		if math.Float64bits(o.best) != math.Float64bits(res.History[i+1]) {
			t.Errorf("generation %d reported best %v, History has %v", i, o.best, res.History[i+1])
		}
	}
	last := seen[len(seen)-1]
	if math.Float64bits(last.best) != math.Float64bits(res.BestFitness) {
		t.Errorf("final callback best %v != result %v", last.best, res.BestFitness)
	}
}
