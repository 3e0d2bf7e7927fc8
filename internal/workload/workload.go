// Package workload defines compute-kernel signatures: the abstract dynamic
// behaviour of a piece of computation, independent of any machine. A
// signature is what the hardware-counter simulator (internal/hpm) "executes"
// on a machine model to produce counters and compute time.
//
// The same vocabulary describes both sides of SWAPP's compute projection:
// the SPEC CPU2006 surrogate benchmarks (internal/spec) and the NAS
// Multi-Zone compute kernels (internal/nas) are all Signatures, which is
// what makes surrogate matching meaningful — an application and its
// surrogate genuinely share behaviour, not just numbers.
package workload

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Signature is the machine-independent description of a compute kernel's
// dynamic behaviour.
type Signature struct {
	// Name keys the deterministic idiosyncrasy stream; two kernels with
	// the same name behave identically everywhere.
	Name string

	// Instructions is the dynamic instruction count of the kernel
	// (baseline ISA; real machines see a dialect-adjusted count).
	Instructions float64

	// Instruction mix, as fractions of dynamic instructions.
	FPFraction     float64 // floating-point operations
	MemFraction    float64 // loads + stores
	BranchFraction float64 // branches
	BranchMissRate float64 // mispredictions per branch

	// ILP is the instruction-level parallelism the kernel exposes to an
	// ideal machine (completions per cycle ceiling from dependences).
	ILP float64

	// Footprint is the kernel's resident data footprint; Alpha shapes the
	// working-set curve: a cache of capacity C captures
	// (C/Footprint)^Alpha of the reuse traffic. Small Alpha means a hot
	// core that caches well; Alpha near 1 means flat, cache-hostile
	// access.
	Footprint units.Bytes
	Alpha     float64

	// StreamFraction is the share of memory accesses that stream through
	// the cache (no reuse): they always come from memory but prefetch
	// well.
	StreamFraction float64

	// RemoteFraction is the share of memory-level traffic served by a
	// remote NUMA domain on multi-socket nodes.
	RemoteFraction float64

	// DialectSensitivity scales how strongly the kernel's dynamic
	// instruction count and response shift across ISAs/compilers
	// (1 = typical).
	DialectSensitivity float64
}

// Validate reports the first structurally invalid field, or nil.
func (s *Signature) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: signature needs a name")
	case s.Instructions <= 0:
		return fmt.Errorf("workload %s: non-positive instruction count", s.Name)
	case s.FPFraction < 0 || s.MemFraction <= 0 || s.BranchFraction < 0:
		return fmt.Errorf("workload %s: bad instruction mix", s.Name)
	case s.FPFraction+s.MemFraction+s.BranchFraction > 1:
		return fmt.Errorf("workload %s: instruction mix exceeds 1", s.Name)
	case s.BranchMissRate < 0 || s.BranchMissRate > 0.5:
		return fmt.Errorf("workload %s: implausible branch miss rate", s.Name)
	case s.ILP < 0.5 || s.ILP > 8:
		return fmt.Errorf("workload %s: ILP out of range", s.Name)
	case s.Footprint <= 0:
		return fmt.Errorf("workload %s: non-positive footprint", s.Name)
	case s.Alpha <= 0 || s.Alpha > 1:
		return fmt.Errorf("workload %s: alpha must be in (0,1]", s.Name)
	case s.StreamFraction < 0 || s.StreamFraction > 1:
		return fmt.Errorf("workload %s: stream fraction out of range", s.Name)
	case s.RemoteFraction < 0 || s.RemoteFraction > 1:
		return fmt.Errorf("workload %s: remote fraction out of range", s.Name)
	case s.DialectSensitivity < 0 || s.DialectSensitivity > 3:
		return fmt.Errorf("workload %s: dialect sensitivity out of range", s.Name)
	}
	return nil
}

// HotFraction is the share of reuse accesses that hit a small hot set
// (stack, loop-carried scalars, hot structures) and are captured by any
// real cache. Data-cache hit rates below ~85 % are rare even for
// pointer-chasing codes; the working-set curve only governs the remaining
// capacity-sensitive traffic.
const HotFraction = 0.92

// Coverage returns the fraction of reuse traffic a cache of the given
// capacity captures: the hot set plus (C/Footprint)^Alpha of the
// capacity-sensitive remainder, clamped to [0,1].
func (s *Signature) Coverage(capacity units.Bytes) float64 {
	if capacity <= 0 {
		return 0
	}
	if capacity >= s.Footprint {
		return 1
	}
	tail := math.Pow(float64(capacity)/float64(s.Footprint), s.Alpha)
	return HotFraction + (1-HotFraction)*tail
}

// StreamCoverage is the capacity curve for the streaming portion of the
// accesses: streamed arrays have no hot subset — a cache only helps once it
// holds the arrays themselves — so the raw (C/Footprint)^Alpha tail applies
// without the hot-set floor.
func (s *Signature) StreamCoverage(capacity units.Bytes) float64 {
	if capacity <= 0 {
		return 0
	}
	if capacity >= s.Footprint {
		return 1
	}
	return math.Pow(float64(capacity)/float64(s.Footprint), s.Alpha)
}

// ScaledWork returns a copy with the instruction count multiplied by f,
// leaving the per-instruction behaviour unchanged. Used to express "the
// same kernel over a smaller sub-domain".
func (s *Signature) ScaledWork(f float64) *Signature {
	c := *s
	c.Instructions *= f
	return &c
}

// Partitioned returns the per-rank signature of this kernel under strong
// scaling across ranks: each rank executes 1/ranks of the instructions over
// 1/ranks of the footprint. The name is preserved — it is the same
// computation, so it must keep the same idiosyncratic personality.
func (s *Signature) Partitioned(ranks int) *Signature {
	if ranks < 1 {
		panic("workload: Partitioned needs ranks >= 1")
	}
	c := *s
	c.Instructions /= float64(ranks)
	c.Footprint = s.Footprint / units.Bytes(ranks)
	if c.Footprint < 1 {
		c.Footprint = 1
	}
	return &c
}
