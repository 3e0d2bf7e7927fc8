package ga

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestObsMetricsMatchResult pins the acceptance contract: the observability
// counters report exactly what Result reports — ga.evaluations equals
// Result.Evaluations and ga.generations equals the configured generation
// count.
func TestObsMetricsMatchResult(t *testing.T) {
	for _, workers := range []int{1, 8} {
		root := obs.New("test")
		res, err := Run(Config{
			GenomeLen: 8, MaxActive: 3,
			PopSize: 16, Generations: 25,
			Seed:    "obs-metrics",
			Fitness: sphere([]float64{0.5, 0, 0.25, 0, 0.75, 0, 0, 0.1}),
			Workers: workers,
			Obs:     root,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		m := root.Metrics()
		if v, ok := m.Counter("ga.evaluations"); !ok || v != int64(res.Evaluations) {
			t.Errorf("workers=%d: ga.evaluations = %d, Result.Evaluations = %d", workers, v, res.Evaluations)
		}
		if v, ok := m.Counter("ga.generations"); !ok || v != 25 {
			t.Errorf("workers=%d: ga.generations = %d, want 25", workers, v)
		}
		// Evaluations is every score the run requested: the initial
		// population plus one batch of children per generation.
		if res.Evaluations != 16+25*(16-2) {
			t.Errorf("workers=%d: evaluations %d != total scores %d", workers, res.Evaluations, 16+25*(16-2))
		}
		// The final best must appear in the histogram exactly once.
		h, ok := m.Histogram("ga.best_fitness")
		if !ok || h.Count != 1 || h.Min != res.BestFitness || h.Max != res.BestFitness {
			t.Errorf("workers=%d: ga.best_fitness histogram %+v, want single %v", workers, h, res.BestFitness)
		}
		// The trace must contain the ga.run span, closed within the root.
		tr := root.Trace()
		if len(tr.Spans) != 1 || tr.Spans[0].Name != "ga.run" {
			t.Fatalf("workers=%d: trace spans = %+v", workers, tr.Spans)
		}
	}
}

// TestObsDoesNotPerturbRun pins the determinism contract at the GA level:
// identical seeds give identical results with observability on or off.
func TestObsDoesNotPerturbRun(t *testing.T) {
	cfg := Config{
		GenomeLen: 10, MaxActive: 4,
		PopSize: 24, Generations: 40,
		Seed:    "obs-determinism",
		Fitness: sphere([]float64{0.1, 0.9, 0, 0, 0.4, 0, 0.6, 0, 0, 0.2}),
	}
	for _, workers := range []int{1, 8} {
		plain := cfg
		plain.Workers = workers
		a, err := Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		observed := cfg
		observed.Workers = workers
		observed.Obs = obs.New("obs-on")
		b, err := Run(observed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d: observability changed the run:\noff: %+v\non:  %+v", workers, a, b)
		}
	}
}
