// Package nas implements the NAS Multi-Zone benchmarks — BT-MZ, SP-MZ and
// LU-MZ, classes C and D — as simulated workloads: the applications the
// paper projects (§4).
//
// The Multi-Zone benchmarks partition an aggregate 3-D grid into zones;
// each timestep every zone computes (ADI/SSOR sweeps in the originals) and
// exchanges boundary values with its four neighbours over the periodic
// zone grid. Zones are assigned to MPI ranks by a load balancer. The three
// benchmarks differ exactly where it matters for SWAPP:
//
//   - BT-MZ sizes its zones in a geometric progression (largest:smallest ≈
//     20:1), so at high rank counts bin-packing cannot balance the load and
//     WaitTime dominates communication — the paper's Table 1 shows its
//     communication share exploding from 3.2 % at 16 tasks to ~60 % at 128.
//   - SP-MZ uses equal zones: communication is genuine transfer time,
//     growing moderately under strong scaling (4.8 → 16 %).
//   - LU-MZ has only 16 zones, capping it at 16 ranks (the paper reports a
//     single bar per system), with ~1.4 % communication.
//
// Compute is modelled per rank as a workload.Signature (executed by
// internal/hpm on the machine model); communication runs through the
// discrete-event MPI simulator with one Isend/Irecv per zone face per step
// and a Waitall — the pattern the paper equates to its multi-Sendrecv
// benchmark — plus the small Bcast/Reduce traffic of initialization and
// convergence checks.
package nas

import (
	"fmt"
)

// Benchmark names a NAS Multi-Zone benchmark.
type Benchmark string

// The three Multi-Zone benchmarks.
const (
	BT Benchmark = "BT-MZ"
	SP Benchmark = "SP-MZ"
	LU Benchmark = "LU-MZ"
)

// Benchmarks lists all three in the paper's order.
func Benchmarks() []Benchmark { return []Benchmark{BT, LU, SP} }

// Class is the NPB problem class.
type Class byte

// Problem classes used in the paper's validation.
const (
	ClassC Class = 'C'
	ClassD Class = 'D'
)

// Classes lists the validated problem classes.
func Classes() []Class { return []Class{ClassC, ClassD} }

// String implements fmt.Stringer.
func (c Class) String() string { return string(c) }

// Config selects one benchmark instance.
type Config struct {
	Bench Benchmark
	Class Class
	Ranks int
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%s.%s×%d", c.Bench, c.Class, c.Ranks)
}

// Name is the workload identity: benchmark + class (the same computation
// regardless of rank count, which is what makes its idiosyncratic machine
// response consistent across scales).
func (c Config) Name() string { return fmt.Sprintf("%s.%s", c.Bench, c.Class) }

// Spec is the resolved problem geometry and kernel character of a
// (benchmark, class) pair.
type Spec struct {
	ZonesX, ZonesY int // zone grid
	GridX, GridY   int // aggregate horizontal grid
	GridZ          int // vertical extent (all zones full height)
	Steps          int // timesteps simulated

	// ZoneRatio is the largest:smallest zone area ratio (1 = equal).
	ZoneRatio float64

	// Kernel character per grid point per timestep.
	InstrPerPoint float64
	BytesPerPoint float64 // resident footprint per point

	// Signature shape (see workload.Signature).
	FPFraction, MemFraction, BranchFraction, BranchMissRate float64
	ILP, Alpha, StreamFraction                              float64

	// Communication shape.
	GhostVars int // variables exchanged per boundary point
	WordBytes int

	// Convergence check cadence (steps between Reduce calls).
	CheckEvery int
}

// Zones is the total zone count.
func (s *Spec) Zones() int { return s.ZonesX * s.ZonesY }

// Points is the total grid point count.
func (s *Spec) Points() float64 { return float64(s.GridX) * float64(s.GridY) * float64(s.GridZ) }

// The timestep counts are scaled down ~4× from the originals (200–500) to
// keep discrete-event simulation affordable; per-step behaviour — the
// compute/communication ratio and message mix SWAPP consumes — is
// unchanged. Documented in DESIGN.md.
const (
	stepsC = 50
	stepsD = 60
)

// SpecFor resolves the problem geometry for a (benchmark, class) pair,
// following the NPB-MZ problem definitions.
func SpecFor(b Benchmark, c Class) (*Spec, error) {
	s := &Spec{GhostVars: 10, WordBytes: 8, CheckEvery: 25} // 5 variables × 2-deep ghost slab
	switch c {
	case ClassC:
		s.GridX, s.GridY, s.GridZ, s.Steps = 480, 320, 28, stepsC
	case ClassD:
		s.GridX, s.GridY, s.GridZ, s.Steps = 1632, 1216, 34, stepsD
	default:
		return nil, fmt.Errorf("nas: unsupported class %q (only C and D)", c)
	}
	switch b {
	case BT:
		// Uneven zones: 16×16 (C) / 32×32 (D), ~20:1 area spread.
		if c == ClassC {
			s.ZonesX, s.ZonesY = 16, 16
		} else {
			s.ZonesX, s.ZonesY = 32, 32
		}
		s.ZoneRatio = 20
		s.InstrPerPoint = 3800
		s.FPFraction, s.MemFraction = 0.32, 0.38
		s.BranchFraction, s.BranchMissRate = 0.04, 0.008
		s.ILP, s.Alpha, s.StreamFraction = 2.6, 0.90, 0.45
	case SP:
		if c == ClassC {
			s.ZonesX, s.ZonesY = 16, 16
		} else {
			s.ZonesX, s.ZonesY = 32, 32
		}
		s.ZoneRatio = 1
		s.InstrPerPoint = 1600
		s.FPFraction, s.MemFraction = 0.30, 0.40
		s.BranchFraction, s.BranchMissRate = 0.04, 0.006
		s.ILP, s.Alpha, s.StreamFraction = 2.4, 0.92, 0.50
	case LU:
		s.ZonesX, s.ZonesY = 4, 4
		s.ZoneRatio = 1
		s.InstrPerPoint = 2500
		s.FPFraction, s.MemFraction = 0.31, 0.39
		s.BranchFraction, s.BranchMissRate = 0.05, 0.010
		s.ILP, s.Alpha, s.StreamFraction = 2.0, 0.88, 0.40
	default:
		return nil, fmt.Errorf("nas: unknown benchmark %q", b)
	}
	s.BytesPerPoint = 296 // ≈7 arrays × 5 variables × 8 B + metadata
	return s, nil
}

// MaxRanks is the largest MPI rank count a (benchmark, class) instance
// supports: one zone per rank.
func MaxRanks(b Benchmark, c Class) int {
	s, err := SpecFor(b, c)
	if err != nil {
		return 0
	}
	return s.Zones()
}

// PaperRankCounts returns the rank counts the paper evaluates for a
// benchmark: {16, 32, 64, 128} for BT/SP, {16} for LU (16 zones).
func PaperRankCounts(b Benchmark) []int {
	if b == LU {
		return []int{16}
	}
	return []int{16, 32, 64, 128}
}
