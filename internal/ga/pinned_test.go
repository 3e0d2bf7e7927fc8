package ga

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/faultinject"
)

// resultDigest hashes every bit of a Result: Float64bits of Best,
// BestFitness and History, then Evaluations and Quarantined.
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
	put(uint64(r.Quarantined))
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunPinned holds seeded runs to recorded digests: the RNG stream,
// every fitness, the evaluation count and the quarantine count must stay
// bit-equal through any rework of Run. The cases cover an unlimited
// genome, a sparsity cap, a panicking fitness and an armed ga.eval fault.
func TestRunPinned(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		fault string
		want  string
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
		{
			name: "panicking-fitness",
			cfg:  quarantineConfig(),
			want: "60138563c259380e41e1c5b2931e4471af2330f0206be7a50a3d9dafae72418b",
		},
		{
			name: "armed-ga.eval",
			cfg: Config{GenomeLen: 8, MaxActive: 3, PopSize: 12, Generations: 15, Seed: "pinned-armed",
				Fitness: sphere([]float64{0.5, 0, 0.25, 0, 0.75, 0, 0, 0.1})},
			fault: "ga.eval=panic#1",
			want:  "c3e933724a003c33f6c89f3ecff292e30902383eedacc585b612feb3a70c0c48",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fault != "" {
				defer faultinject.Disarm()
				if err := faultinject.Arm(tc.fault); err != nil {
					t.Fatal(err)
				}
			}
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("digest %s, want %s (evaluations %d, quarantined %d)",
					got, tc.want, res.Evaluations, res.Quarantined)
			}
		})
	}
}
