package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func valid() *Signature {
	return &Signature{
		Name:               "k",
		Instructions:       1e9,
		FPFraction:         0.3,
		MemFraction:        0.35,
		BranchFraction:     0.1,
		BranchMissRate:     0.02,
		ILP:                2.5,
		Footprint:          64 * units.MiB,
		Alpha:              0.5,
		StreamFraction:     0.2,
		RemoteFraction:     0.05,
		DialectSensitivity: 1,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Signature){
		func(s *Signature) { s.Name = "" },
		func(s *Signature) { s.Instructions = 0 },
		func(s *Signature) { s.MemFraction = 0 },
		func(s *Signature) { s.FPFraction = 0.8; s.MemFraction = 0.3 },
		func(s *Signature) { s.BranchMissRate = 0.9 },
		func(s *Signature) { s.ILP = 0.1 },
		func(s *Signature) { s.Footprint = 0 },
		func(s *Signature) { s.Alpha = 0 },
		func(s *Signature) { s.Alpha = 1.5 },
		func(s *Signature) { s.StreamFraction = -0.1 },
		func(s *Signature) { s.RemoteFraction = 2 },
		func(s *Signature) { s.DialectSensitivity = 5 },
	}
	for i, mutate := range cases {
		s := valid()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid signature accepted", i)
		}
	}
}

func TestCoverageEndpoints(t *testing.T) {
	s := valid()
	if s.Coverage(0) != 0 {
		t.Error("zero capacity must cover nothing")
	}
	if s.Coverage(s.Footprint) != 1 {
		t.Error("capacity == footprint must cover everything")
	}
	if s.Coverage(2*s.Footprint) != 1 {
		t.Error("excess capacity must clamp to 1")
	}
	half := s.Coverage(s.Footprint / 2)
	want := HotFraction + (1-HotFraction)*math.Pow(0.5, s.Alpha)
	if math.Abs(half-want) > 1e-12 {
		t.Errorf("half-footprint coverage = %v, want %v", half, want)
	}
	if tiny := s.Coverage(1); tiny < HotFraction-1e-9 {
		t.Errorf("tiny cache must still capture the hot set, got %v", tiny)
	}
}

// Property: coverage is monotone non-decreasing in capacity and in [0,1].
func TestCoverageMonotoneProperty(t *testing.T) {
	s := valid()
	f := func(a, b uint32) bool {
		ca, cb := units.Bytes(a), units.Bytes(b)
		if ca > cb {
			ca, cb = cb, ca
		}
		va, vb := s.Coverage(ca), s.Coverage(cb)
		return va <= vb && va >= 0 && vb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaledWork(t *testing.T) {
	s := valid()
	h := s.ScaledWork(0.5)
	if h.Instructions != s.Instructions/2 {
		t.Error("ScaledWork must scale instructions")
	}
	if h.Footprint != s.Footprint || h.FPFraction != s.FPFraction {
		t.Error("ScaledWork must not touch behaviour")
	}
	if s.Instructions != 1e9 {
		t.Error("ScaledWork must not mutate the receiver")
	}
}

func TestPartitioned(t *testing.T) {
	s := valid()
	p := s.Partitioned(16)
	if p.Instructions != s.Instructions/16 {
		t.Error("per-rank instructions wrong")
	}
	if p.Footprint != s.Footprint/16 {
		t.Error("per-rank footprint wrong")
	}
	if p.Name != s.Name {
		t.Error("partitioning must preserve identity")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("partitioned signature invalid: %v", err)
	}
}

func TestPartitionedFloorsFootprint(t *testing.T) {
	s := valid()
	s.Footprint = 4
	p := s.Partitioned(1000)
	if p.Footprint < 1 {
		t.Error("footprint must never reach zero")
	}
}

func TestPartitionedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Partitioned(0) must panic")
		}
	}()
	valid().Partitioned(0)
}
