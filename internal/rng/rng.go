// Package rng provides a deterministic, splittable pseudo-random source
// keyed by strings. The simulator uses it for two distinct purposes:
//
//   - idiosyncratic machine response terms — the per-(workload, machine)
//     wiggle that makes projection error emerge from model mismatch rather
//     than being painted on; these must be a pure function of their key so
//     that "running" a workload twice yields identical behaviour, and
//   - measurement noise — counter jitter that shrinks with observation
//     length, reproducing the paper's class-C-vs-D accuracy gap.
//
// Everything is stdlib-only and reproducible across runs and platforms:
// keys are hashed with FNV-1a into the state of a SplitMix64/xoshiro-style
// generator.
package rng

import "math"

// Source is a small deterministic PRNG seeded from a string key.
// The zero value is not usable; construct with New.
type Source struct {
	state uint64
}

// FNV-1a 64 constants, as hash/fnv uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// New returns a Source whose stream is a pure function of its key: the
// concatenation of keyParts, so New("a|", "b") and New("a|b") are the same
// stream. The key is hashed in place — FNV-1a 64, the value hash/fnv gives —
// so a composite key costs no string and seeding costs no hasher.
func New(keyParts ...string) *Source {
	s := uint64(fnvOffset64)
	for _, part := range keyParts {
		for i := 0; i < len(part); i++ {
			s ^= uint64(part[i])
			s *= fnvPrime64
		}
	}
	if s == 0 {
		s = 0x9e3779b97f4a7c15 // avoid the degenerate all-zero state
	}
	return &Source{state: s}
}

// next advances the SplitMix64 state and returns 64 pseudo-random bits.
func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 { return s.next() }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.next() % uint64(n))
}

// Normal returns a draw from N(mean, stddev²) via Box–Muller.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Guard the log against a zero uniform draw.
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormalFactor returns exp(N(0, sigma²)) clipped to [1/limit, limit]:
// a multiplicative wiggle centred on 1, suitable for idiosyncratic machine
// response terms. limit must be > 1.
func (s *Source) LogNormalFactor(sigma, limit float64) float64 {
	if limit <= 1 {
		panic("rng: LogNormalFactor limit must exceed 1")
	}
	f := math.Exp(s.Normal(0, sigma))
	if f > limit {
		return limit
	}
	if f < 1/limit {
		return 1 / limit
	}
	return f
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)): the
// permutation, and the draws it takes, that Perm(len(p)) would.
func (s *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Idiosyncrasy returns the stable multiplicative response factor for a
// (workload, machine) pair: exp(N(0, sigma²)) clipped to ±3σ equivalents.
// It is a pure function of the two keys and sigma's magnitude class, so the
// same pair always responds identically — machines have personalities, not
// noise.
func Idiosyncrasy(workload, machine string, sigma float64) float64 {
	src := New("idio2|", workload, "|", machine)
	return src.LogNormalFactor(sigma, math.Exp(3*sigma))
}
