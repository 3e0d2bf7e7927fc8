// Package hpm simulates a hardware performance monitor: it "executes" a
// workload signature on a machine model and reports compute time plus the
// six metric groups the paper builds its compute projection on (§2.1):
//
//	G1 — CPI completion cycles
//	G2 — CPI stall cycles
//	G3 — floating-point instructions
//	G4 — ERAT, SLB and TLB miss rates
//	G5 — data-cache reloads (m5,1 data from L2, m5,2 from L3,
//	     m5,3 from local memory, m5,4 from remote memory, per instruction)
//	G6 — memory bandwidth
//
// It substitutes for IBM's HPMCOUNT on real POWER hardware. Two deliberate
// imperfections make the downstream projection problem honest:
//
//   - Idiosyncratic response: each (workload, machine) pair carries a
//     deterministic multiplicative runtime factor whose spread grows with
//     the machine's architectural distance from the reference (the POWER5+
//     base the signatures are calibrated on). The projection pipeline never
//     sees these factors; they are why its error is nonzero and why it grows
//     in the paper's observed order POWER6 < BG/P < Westmere.
//   - Measurement noise: observed counters jitter with a magnitude that
//     shrinks with runtime, reproducing the paper's finding that the
//     longer-running class D projects more accurately than class C.
package hpm

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// Mode selects the hardware-threading configuration of a run, mirroring the
// paper's use of both ST and SMT metrics to characterise behaviour under
// different resource pressure.
type Mode int

// Threading modes.
const (
	ST  Mode = iota // one thread per core
	SMT             // all hardware threads per core busy
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == SMT {
		return "SMT"
	}
	return "ST"
}

// ReferenceMachine names the machine the workload signatures are calibrated
// on; idiosyncratic response grows with ISA distance from it. It is the
// paper's base system.
const ReferenceMachine = arch.Hydra

// IdioScale globally scales idiosyncratic response. 1.0 lands projection
// errors in the paper's 8–14 % band; 0 gives an oracle substrate (useful in
// tests).
var IdioScale = 1.0

// noiseBase scales measurement noise: sigma = noiseBase/sqrt(runtime).
// Calibrated so that class-C-scale runs (hundreds of seconds) observe
// counters at ~1-2 % jitter while class-D-scale runs (thousands of
// seconds) observe well under 1 % — the paper's accuracy asymmetry.
const noiseBase = 0.30

// maxNoiseSigma caps measurement noise for very short runs.
const maxNoiseSigma = 0.08

// Config selects how a signature is run.
type Config struct {
	Machine *arch.Machine
	Mode    Mode
	// ActiveTasksPerNode is how many tasks share a node (memory-bandwidth
	// contention). Zero means a fully packed node.
	ActiveTasksPerNode int
	// MeasureNoise adds runtime-dependent observation noise to the
	// counters, as a real PMU run would show.
	MeasureNoise bool
	// NoiseKey distinguishes repeated measurements of the same run; it
	// seeds the noise stream.
	NoiseKey string
}

// Counters is one observation: the six metric groups plus derived totals.
type Counters struct {
	Machine string
	Mode    Mode

	// G1 — completion.
	CPICompletion float64

	// G2 — stalls, with its breakdown.
	CPIStallTotal  float64
	CPIStallMem    float64
	CPIStallBranch float64
	CPIStallTrans  float64 // address-translation stalls

	// G3 — floating point.
	FPPerInstr float64

	// G4 — translation miss rates, per thousand instructions.
	ERATMissPerK float64
	SLBMissPerK  float64
	TLBMissPerK  float64

	// G5 — data-cache reloads per instruction (the paper's m5,1..m5,4).
	DataFromL2     float64
	DataFromL3     float64
	DataFromLocal  float64
	DataFromRemote float64

	// G6 — achieved memory bandwidth, GB/s per task.
	MemBWGBs float64

	// Derived totals.
	Instructions float64
	CPI          float64
	Runtime      units.Seconds
}

// NumMetrics is the length of the flattened metric vector.
const NumMetrics = 13

// MetricGroupOf maps a flattened metric index to its group number (1..6).
func MetricGroupOf(i int) int {
	switch {
	case i == 0:
		return 1
	case i <= 3:
		return 2
	case i == 4:
		return 3
	case i <= 7:
		return 4
	case i <= 11:
		return 5
	default:
		return 6
	}
}

// Vector flattens the counters into the canonical 13-metric vector, in
// order and grouped G1..G6 (MetricGroupOf maps an entry to its group).
func (c *Counters) Vector() []float64 {
	return []float64{
		c.CPICompletion,
		c.CPIStallMem, c.CPIStallBranch, c.CPIStallTrans,
		c.FPPerInstr,
		c.ERATMissPerK, c.SLBMissPerK, c.TLBMissPerK,
		c.DataFromL2, c.DataFromL3, c.DataFromLocal, c.DataFromRemote,
		c.MemBWGBs,
	}
}

// overlapFor returns the fraction of memory stall a core hides by
// overlapping with execution.
func overlapFor(class arch.MicroArchClass) float64 {
	switch class {
	case arch.ClassServerOoO:
		return 0.62
	case arch.ClassServerInOrd:
		// POWER6's in-order pipeline still overlaps misses well via
		// aggressive hardware prefetch and a deep load-miss queue.
		return 0.45
	default: // embedded
		return 0.22
	}
}

// branchPenaltyFor returns the misprediction penalty in cycles.
func branchPenaltyFor(class arch.MicroArchClass) float64 {
	switch class {
	case arch.ClassServerOoO:
		return 14
	case arch.ClassServerInOrd:
		return 11
	default:
		return 5
	}
}

// streamPrefetchDiscount is the fraction of full memory latency a streaming
// (prefetchable) access exposes: hardware prefetchers hide most of it, so a
// streaming kernel is bandwidth- rather than latency-limited.
const streamPrefetchDiscount = 0.04

// mlpFor returns the memory-level parallelism a core sustains on demand
// misses: out-of-order cores keep several misses in flight (dividing the
// exposed latency), in-order and embedded cores far fewer. Scales with the
// kernel's ILP, since independent work is what lets misses overlap.
func mlpFor(class arch.MicroArchClass, ilp float64) float64 {
	var slope float64
	switch class {
	case arch.ClassServerOoO:
		slope = 0.70
	case arch.ClassServerInOrd:
		slope = 0.45
	default:
		slope = 0.15
	}
	return 1 + slope*(ilp-1)
}

// Memory traffic accounting: a random (reuse-miss) access drags in a cache
// line but shares part of it with neighbouring accesses; a streaming access
// amortises the whole line, costing only its own data.
const (
	randomLineUtilization = 0.6 // fraction of a fetched line that is unique traffic
	streamBytesPerAccess  = 12  // effective bytes per streaming access
)

// Run executes sig on the configured machine and returns the observed
// counters. The result is deterministic in (signature name, machine, mode,
// noise key).
func Run(sig *workload.Signature, cfg Config) (Counters, error) {
	if err := sig.Validate(); err != nil {
		return Counters{}, err
	}
	if cfg.Machine == nil {
		return Counters{}, fmt.Errorf("hpm: nil machine")
	}
	m := cfg.Machine
	p := &m.Proc
	active := cfg.ActiveTasksPerNode
	if active <= 0 {
		active = m.CoresPerNode
	}
	if active > m.CoresPerNode*p.SMTWays {
		return Counters{}, fmt.Errorf("hpm: %d tasks exceed node capacity of %s", active, m.Name)
	}

	c := Counters{Machine: m.Name, Mode: cfg.Mode, Instructions: sig.Instructions}

	// --- G1: completion CPI -------------------------------------------
	ilp := math.Min(sig.ILP, float64(p.IssueWidth))
	cpiCompl := math.Max(p.BaseCPI, 1/ilp)
	if sig.FPFraction > 0 && p.FPPerCycle > 0 {
		cpiCompl = math.Max(cpiCompl, sig.FPFraction/p.FPPerCycle)
	}

	// --- G5: where the data comes from --------------------------------
	// Per-thread effective cache capacity; SMT threads share core caches.
	threadShare := 1
	if cfg.Mode == SMT {
		threadShare = p.SMTWays
	}
	// Placement follows the working-set curves: data that fits in a level
	// is served by it whether the access pattern is reusing or streaming
	// (a "stream" over a cache-resident array hits cache). Reuse traffic
	// enjoys the hot-set floor; streaming traffic follows the raw
	// capacity tail. Cumulative best coverage walking up the hierarchy
	// handles non-monotone capacities (BG/P's tiny L2 below its L1).
	reuse := 1 - sig.StreamFraction
	memAccess := sig.MemFraction
	walk := func(coverage func(units.Bytes) float64) (fromLevel []float64, fromMem float64) {
		covCum := 0.0
		fromLevel = make([]float64, len(p.Caches))
		for i, lvl := range p.Caches {
			eff := lvl.EffectivePerCore() / units.Bytes(threadShare)
			cov := coverage(eff)
			if cov > covCum {
				fromLevel[i] = cov - covCum
				covCum = cov
			}
		}
		return fromLevel, 1 - covCum
	}
	levelR, memR := walk(sig.Coverage)
	levelS, memS := walk(sig.StreamCoverage)
	blend := func(r, st float64) float64 { return reuse*r + sig.StreamFraction*st }

	// L1 hits are part of completion CPI; reloads start at L2.
	if len(p.Caches) > 1 {
		c.DataFromL2 = memAccess * blend(levelR[1], levelS[1])
	}
	if len(p.Caches) > 2 {
		c.DataFromL3 = memAccess * blend(levelR[2], levelS[2])
	}
	fromMem := memAccess * blend(memR, memS)
	remoteFrac := sig.RemoteFraction
	if p.RemoteLatNs <= p.MemLatencyNs {
		remoteFrac = 0 // flat memory (BG/P)
	}
	c.DataFromRemote = fromMem * remoteFrac
	c.DataFromLocal = fromMem - c.DataFromRemote

	// --- G4: translation misses ----------------------------------------
	c.TLBMissPerK = translationMissPerK(sig, p.TLBEntries, p.PageBytes)
	c.ERATMissPerK = translationMissPerK(sig, p.ERATEntries, p.PageBytes) * 1.6
	if p.SLBEntries > 0 {
		segments := float64(sig.Footprint) / float64(256*units.MiB)
		if segments > float64(p.SLBEntries) {
			c.SLBMissPerK = 0.05 * (1 - float64(p.SLBEntries)/segments) * sig.MemFraction * 1000
		}
	}

	// --- G2: stall CPI --------------------------------------------------
	overlap := overlapFor(p.Class)
	memCycles := p.MemLatencyNs * p.ClockGHz
	remCycles := p.RemoteLatNs * p.ClockGHz
	// Reloads at every level: the reusing part overlaps by the core's
	// sustainable miss-level parallelism; the streaming part is hidden by
	// prefetchers down to a small exposed fraction.
	mlp := mlpFor(p.Class, math.Min(sig.ILP, float64(p.IssueWidth)))
	localShare := 1 - remoteFrac
	memBlendCycles := localShare*memCycles + remoteFrac*remCycles
	var reloadStall float64
	if len(p.Caches) > 1 {
		reloadStall += memAccess * p.Caches[1].LatencyCycles *
			(reuse*levelR[1]/mlp + sig.StreamFraction*levelS[1]*streamPrefetchDiscount)
	}
	if len(p.Caches) > 2 {
		reloadStall += memAccess * p.Caches[2].LatencyCycles *
			(reuse*levelR[2]/mlp + sig.StreamFraction*levelS[2]*streamPrefetchDiscount)
	}
	reloadStall += memAccess * memBlendCycles *
		(reuse*memR/mlp + sig.StreamFraction*memS*streamPrefetchDiscount)
	c.CPIStallMem = reloadStall * (1 - overlap)

	c.CPIStallBranch = sig.BranchFraction * sig.BranchMissRate * branchPenaltyFor(p.Class)
	transPenalty := memCycles * 0.8
	c.CPIStallTrans = (c.TLBMissPerK*transPenalty + c.ERATMissPerK*18 + c.SLBMissPerK*60) / 1000

	// --- G6 + bandwidth throttle ----------------------------------------
	line := float64(p.LastLevel().LineSize)
	bytesPerInstr := memAccess * (reuse*memR*line*randomLineUtilization +
		sig.StreamFraction*memS*streamBytesPerAccess)
	cpi := cpiCompl + c.CPIStallMem + c.CPIStallBranch + c.CPIStallTrans
	// Per-task bandwidth share: the node's aggregate sustainable
	// bandwidth is CoresPerNode×MemBWGBs, split across active tasks, but
	// one task can't use more than 4× its fair share.
	supply := p.MemBWGBs * float64(m.CoresPerNode) / float64(active)
	supply = math.Min(supply, 4*p.MemBWGBs)
	demand := bytesPerInstr / cpi * p.ClockGHz // bytes/cycle × GHz = GB/s
	if demand > supply && demand > 0 {
		// The memory-stall component inflates by the oversubscription.
		extra := c.CPIStallMem * (demand/supply - 1)
		c.CPIStallMem += extra
		cpi += extra
		demand = bytesPerInstr / cpi * p.ClockGHz
	}
	c.MemBWGBs = demand

	// --- SMT sharing ------------------------------------------------------
	if cfg.Mode == SMT && p.SMTWays > 1 {
		// All threads busy: core throughput rises by SMTGain, so each of
		// SMTWays threads runs at SMTGain/SMTWays of ST speed.
		cpi *= float64(p.SMTWays) / p.SMTGain
	}

	c.CPICompletion = cpiCompl
	c.FPPerInstr = sig.FPFraction
	c.CPIStallTotal = c.CPIStallMem + c.CPIStallBranch + c.CPIStallTrans
	c.CPI = cpi
	c.Runtime = sig.Instructions * cpi / (p.ClockGHz * 1e9)

	// --- idiosyncratic response -----------------------------------------
	ref := arch.MustGet(ReferenceMachine)
	sigma := IdioScale * arch.ISADistance(ref, m) * sig.DialectSensitivity
	if sigma > 0 {
		c.Runtime *= rng.Idiosyncrasy(sig.Name, p.Name, sigma)
	}

	// --- measurement noise ------------------------------------------------
	if cfg.MeasureNoise {
		applyNoise(&c, sig, cfg)
	}
	return c, nil
}

// translationMissPerK models TLB/ERAT-style translation misses per thousand
// instructions for a translation structure with the given entry count.
func translationMissPerK(sig *workload.Signature, entries int, page units.Bytes) float64 {
	if entries <= 0 {
		return 0
	}
	reach := float64(entries) * float64(page)
	fp := float64(sig.Footprint)
	if fp <= reach {
		return 0
	}
	// Sparse touches beyond reach: a small fraction of memory accesses
	// miss, growing with how far the footprint exceeds the reach.
	excess := 1 - reach/fp
	return sig.MemFraction * excess * 4.0 // per-K scale
}

// applyNoise perturbs observed counters with runtime-dependent jitter.
func applyNoise(c *Counters, sig *workload.Signature, cfg Config) {
	sigma := noiseBase / math.Sqrt(math.Max(c.Runtime, 1e-4))
	if sigma > maxNoiseSigma {
		sigma = maxNoiseSigma
	}
	src := rng.New("hpm-noise|", sig.Name, "|", cfg.Machine.Name, "|", cfg.Mode.String(), "|", cfg.NoiseKey)
	jitter := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v * (1 + src.Normal(0, sigma))
	}
	c.CPICompletion = jitter(c.CPICompletion)
	c.CPIStallMem = jitter(c.CPIStallMem)
	c.CPIStallBranch = jitter(c.CPIStallBranch)
	c.CPIStallTrans = jitter(c.CPIStallTrans)
	c.CPIStallTotal = c.CPIStallMem + c.CPIStallBranch + c.CPIStallTrans
	c.FPPerInstr = jitter(c.FPPerInstr)
	c.ERATMissPerK = jitter(c.ERATMissPerK)
	c.SLBMissPerK = jitter(c.SLBMissPerK)
	c.TLBMissPerK = jitter(c.TLBMissPerK)
	c.DataFromL2 = jitter(c.DataFromL2)
	c.DataFromL3 = jitter(c.DataFromL3)
	c.DataFromLocal = jitter(c.DataFromLocal)
	c.DataFromRemote = jitter(c.DataFromRemote)
	c.MemBWGBs = jitter(c.MemBWGBs)
	// Runtime observation noise is much smaller than counter noise.
	c.Runtime *= 1 + src.Normal(0, sigma/4)
	c.CPI = c.Runtime * cfg.Machine.Proc.ClockGHz * 1e9 / c.Instructions
}
