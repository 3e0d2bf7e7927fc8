package rng

import (
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New("key"), New("key")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same key must give identical streams")
		}
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a, b := New("key1"), New("key2")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct keys collided %d/64 draws", same)
	}
}

// TestNewMatchesHashFNV holds New's in-place hash to hash/fnv's FNV-1a 64
// over the key's concatenated parts, zero guard included, so every stream
// seeded before the hash was inlined is unchanged.
func TestNewMatchesHashFNV(t *testing.T) {
	for _, parts := range [][]string{
		{},
		{""},
		{"ga|surrogate-0"},
		{"hpm-noise|BT-MZ.C|hydra|ST|"},
		{"idio2|", "bt-mz", "|", "power6"},
		{"osjitter|BT-MZ.C×16|hydra|", "", "15"},
		{"Größe|", "über|", "日本語"},
	} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(strings.Join(parts, "")))
		want := h.Sum64()
		if want == 0 {
			want = 0x9e3779b97f4a7c15
		}
		if got := New(parts...).state; got != want {
			t.Errorf("New(%q) state %#x, want hash/fnv's %#x", parts, got, want)
		}
	}
}

// TestNewDoesNotAllocate pins that seeding a stream from a composite key
// builds no string and no hasher.
func TestNewDoesNotAllocate(t *testing.T) {
	prefix, id := "osjitter|BT-MZ.C×16|hydra|", "7"
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += New(prefix, id).Uint64()
	}); allocs != 0 {
		t.Errorf("New made %.0f allocations, want 0", allocs)
	}
	_ = sink
}

func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := New("perm"), New("perm")
	p := make([]int, 29)
	for round := 0; round < 4; round++ {
		b.PermInto(p)
		if want := a.Perm(len(p)); !slices.Equal(p, want) {
			t.Fatalf("round %d: PermInto %v, Perm %v", round, p, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New("f")
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

// Property: Float64 is always in [0,1) regardless of key.
func TestFloat64RangeProperty(t *testing.T) {
	f := func(key string) bool {
		s := New(key)
		for i := 0; i < 16; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntn(t *testing.T) {
	s := New("i")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) over 1000 draws hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	New("x").Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New("n")
	const n = 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Normal variance = %v, want ≈4", variance)
	}
}

func TestLogNormalFactorBounds(t *testing.T) {
	s := New("ln")
	for i := 0; i < 10000; i++ {
		f := s.LogNormalFactor(0.5, 2)
		if f < 0.5 || f > 2 {
			t.Fatalf("LogNormalFactor out of clip bounds: %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed string, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdiosyncrasyStable(t *testing.T) {
	a := Idiosyncrasy("bt-mz", "power6", 0.1)
	b := Idiosyncrasy("bt-mz", "power6", 0.1)
	if a != b {
		t.Fatal("Idiosyncrasy must be a pure function of its key")
	}
	c := Idiosyncrasy("bt-mz", "westmere", 0.1)
	if a == c {
		t.Fatal("different machines should respond differently")
	}
	if a <= 0 {
		t.Fatalf("factor must be positive, got %v", a)
	}
}

func TestIdiosyncrasyMagnitude(t *testing.T) {
	// With sigma 0.1 the clip keeps factors within exp(±0.3).
	for _, wl := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		f := Idiosyncrasy(wl, "m", 0.1)
		if f < math.Exp(-0.3)-1e-12 || f > math.Exp(0.3)+1e-12 {
			t.Errorf("Idiosyncrasy(%q) = %v outside ±3σ clip", wl, f)
		}
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 { return s.next() }
