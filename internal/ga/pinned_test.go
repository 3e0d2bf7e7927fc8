package ga

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// resultDigest hashes every bit of a Result: Float64bits of Best,
// BestFitness and History, then Evaluations and a trailing zero word.
func resultDigest(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(r.Best)))
	for _, g := range r.Best {
		put(math.Float64bits(g))
	}
	put(math.Float64bits(r.BestFitness))
	put(uint64(len(r.History)))
	for _, f := range r.History {
		put(math.Float64bits(f))
	}
	put(uint64(r.Evaluations))
	// The trailing word is where the retired quarantine count was hashed;
	// it stays, always 0, so the recorded digests stay comparable.
	put(0)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunPinned holds seeded runs to recorded digests: the RNG stream,
// every fitness and the evaluation count must stay bit-equal through any
// rework of Run. The cases cover an unlimited genome and a sparsity cap.
func TestRunPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "dense",
			cfg: Config{GenomeLen: 6, PopSize: 16, Generations: 20, Seed: "pinned-dense",
				Fitness: sphere([]float64{0.3, 0.7, 0.1, 0.9, 0.5, 0.2})},
			want: "d0fc21e0172417a8d2e10b9942ddda465557d9e182f8ad289ae817c67c1cb6aa",
		},
		{
			name: "sparse",
			cfg: Config{GenomeLen: 12, MaxActive: 5, PopSize: 32, Generations: 40, Seed: "pinned-sparse",
				Fitness: sphere([]float64{0.1, 0, 0.3, 0, 0.5, 0, 0.7, 0, 0.2, 0, 0.4, 0})},
			want: "c3178d4a1446feff9c8752404cd5cde355d3143e25ceaf5abbe494db16260d86",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("digest %s, want %s (evaluations %d)", got, tc.want, res.Evaluations)
			}
		})
	}
}

// TestEvolveInSlicesMatchesRun holds a search run in stretches to
// TestRunPinned's digests: however Evolve splits the generations — one at
// a time, in even slices, in one call that asks for more than remain, or
// unevenly — the draws and scores are those of one uninterrupted run.
func TestEvolveInSlicesMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "dense",
			cfg: Config{GenomeLen: 6, PopSize: 16, Generations: 20, Seed: "pinned-dense",
				Fitness: sphere([]float64{0.3, 0.7, 0.1, 0.9, 0.5, 0.2})},
			want: "d0fc21e0172417a8d2e10b9942ddda465557d9e182f8ad289ae817c67c1cb6aa",
		},
		{
			name: "sparse",
			cfg: Config{GenomeLen: 12, MaxActive: 5, PopSize: 32, Generations: 40, Seed: "pinned-sparse",
				Fitness: sphere([]float64{0.1, 0, 0.3, 0, 0.5, 0, 0.7, 0, 0.2, 0, 0.4, 0})},
			want: "c3178d4a1446feff9c8752404cd5cde355d3143e25ceaf5abbe494db16260d86",
		},
	}
	splits := []struct {
		name string
		ns   []int
	}{
		{"1", []int{1}},
		{"7", []int{7}},
		{"30", []int{30}},
		{"120", []int{120}},
		{"uneven", []int{3, 1, 0, 11, 2, 5}},
	}
	for _, tc := range cases {
		for _, split := range splits {
			t.Run(tc.name+"/"+split.name, func(t *testing.T) {
				s, err := Start(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Cycle through the split until every generation has run;
				// a zero-length Evolve is a no-op stretch.
				for i := 0; s.gen < s.cfg.Generations; i++ {
					s.Evolve(split.ns[i%len(split.ns)])
				}
				if got := resultDigest(s.Result()); got != tc.want {
					t.Errorf("digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}
