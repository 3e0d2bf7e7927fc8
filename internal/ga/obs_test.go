package ga

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestObsMetricsMatchResult pins the acceptance contract: the observability
// counters report exactly what Result reports — ga.evaluations equals
// Result.Evaluations and ga.generations equals the configured generation
// count.
func TestObsMetricsMatchResult(t *testing.T) {
	root := obs.New("test")
	res, err := Run(Config{
		GenomeLen: 8, MaxActive: 3,
		PopSize: 16, Generations: 25,
		Seed:    "obs-metrics",
		Fitness: sphere([]float64{0.5, 0, 0.25, 0, 0.75, 0, 0, 0.1}),
		Obs:     root,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	m := root.Metrics()
	if v, ok := m.Counter("ga.evaluations"); !ok || v != int64(res.Evaluations) {
		t.Errorf("ga.evaluations = %d, Result.Evaluations = %d", v, res.Evaluations)
	}
	if v, ok := m.Counter("ga.generations"); !ok || v != 25 {
		t.Errorf("ga.generations = %d, want 25", v)
	}
	// Evaluations is every score the run requested: the initial
	// population plus one batch of children per generation.
	if res.Evaluations != 16+25*(16-2) {
		t.Errorf("evaluations %d != total scores %d", res.Evaluations, 16+25*(16-2))
	}
	// The final best must appear in the histogram exactly once.
	i := slices.IndexFunc(m.Histograms, func(h obs.HistogramValue) bool { return h.Name == "ga.best_fitness" })
	if i < 0 {
		t.Fatal("no ga.best_fitness histogram")
	}
	if h := m.Histograms[i]; h.Count != 1 || h.Min != res.BestFitness || h.Max != res.BestFitness {
		t.Errorf("ga.best_fitness histogram %+v, want single %v", h, res.BestFitness)
	}
	// The trace must contain the ga.run span, closed within the root.
	tr := root.Trace()
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "ga.run" {
		t.Fatalf("trace spans = %+v", tr.Spans)
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
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed := cfg
	observed.Obs = obs.New("obs-on")
	b, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("observability changed the run:\noff: %+v\non:  %+v", a, b)
	}
}
