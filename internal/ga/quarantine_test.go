package ga

import (
	"math"
	"testing"

	"repro/internal/faultinject"
)

// quarantineConfig is a small run whose fitness panics on genomes
// activating gene 0 — a deterministic subset of the population.
func quarantineConfig(workers int) Config {
	return Config{
		GenomeLen:   6,
		MaxActive:   3,
		PopSize:     16,
		Generations: 10,
		Seed:        "quarantine-test",
		Workers:     workers,
		Fitness: func(g []float64) float64 {
			if g[0] > 0 {
				panic("poisoned gene 0")
			}
			var s float64
			for _, v := range g {
				s += (v - 0.25) * (v - 0.25)
			}
			return s
		},
	}
}

// TestQuarantineSurvivesPanickingFitness proves one bad chromosome cannot
// kill the search: panicking evaluations score +Inf, the run completes,
// and the winner avoids the poisoned region.
func TestQuarantineSurvivesPanickingFitness(t *testing.T) {
	res, err := Run(quarantineConfig(1))
	if err != nil {
		t.Fatalf("run with panicking fitness failed: %v", err)
	}
	if res.Quarantined == 0 {
		t.Fatal("no evaluations quarantined; the poison never triggered")
	}
	if math.IsInf(res.BestFitness, 1) {
		t.Fatal("best fitness is +Inf: quarantine won selection")
	}
	if res.Best[0] > 0 {
		t.Errorf("winner activates the poisoned gene: %v", res.Best)
	}
}

// TestQuarantineDeterministicAcrossWorkers pins that a quarantine score is
// a score like any other: serial and concurrent runs evolve identically,
// panics included.
func TestQuarantineDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Run(quarantineConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(quarantineConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.BestFitness != parallel.BestFitness {
		t.Errorf("best fitness differs: serial %v, 8 workers %v", serial.BestFitness, parallel.BestFitness)
	}
	if len(serial.Best) != len(parallel.Best) {
		t.Fatal("genome lengths differ")
	}
	for i := range serial.Best {
		if serial.Best[i] != parallel.Best[i] {
			t.Fatalf("best genome differs at gene %d: %v vs %v", i, serial.Best, parallel.Best)
		}
	}
	if serial.Quarantined != parallel.Quarantined {
		t.Errorf("quarantine count differs: serial %d, 8 workers %d", serial.Quarantined, parallel.Quarantined)
	}
}

// TestFaultInjectedEvalQuarantines proves the ga.eval injection point
// quarantines instead of failing the run.
func TestFaultInjectedEvalQuarantines(t *testing.T) {
	defer faultinject.Disarm()
	if err := faultinject.Arm("ga.eval=panic#1"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		GenomeLen:   4,
		PopSize:     8,
		Generations: 3,
		Seed:        "faultinject-test",
		Fitness: func(g []float64) float64 {
			var s float64
			for _, v := range g {
				s += v
			}
			return s
		},
	})
	if err != nil {
		t.Fatalf("run with injected panic failed: %v", err)
	}
	if res.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 (panic#1)", res.Quarantined)
	}
	if math.IsInf(res.BestFitness, 1) {
		t.Error("quarantined score won the run")
	}
}
