// Package spec models the SPEC CPU2006 benchmark suite — the surrogate pool
// SWAPP's compute projection draws from (§2.1). The real suite is
// proprietary; this substitution gives each of the 29 benchmarks (12 CINT +
// 17 CFP) a synthetic workload signature whose instruction mix, working set
// and locality reflect the published characterisations of the originals:
// mcf and omnetpp are pointer-chasing and latency-bound, libquantum and lbm
// stream at memory bandwidth, povray and gamess live in cache, and so on.
//
// What matters for SWAPP is not any single benchmark's absolute time but
// that the pool spans the behaviour space: the genetic algorithm must be
// able to find a weighted subset that behaves like a given application. The
// suite is run in throughput mode (one instance per core, the paper's §4
// convention for relating serial benchmarks to parallel ranks).
package spec

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/units"
	"repro/internal/workload"
)

// SuiteGroup labels the two CPU2006 sub-suites.
type SuiteGroup string

// Sub-suites.
const (
	CINT SuiteGroup = "CINT2006"
	CFP  SuiteGroup = "CFP2006"
)

// Benchmark is one SPEC CPU2006 component: a signature plus its sub-suite.
type Benchmark struct {
	Sig   workload.Signature
	Group SuiteGroup
}

// Name returns the benchmark's SPEC name (e.g. "429.mcf").
func (b *Benchmark) Name() string { return b.Sig.Name }

// sig is a compact constructor for benchmark signatures. instr is in units
// of 1e12 dynamic instructions; fp/mem/br are mix fractions; ws is the
// working set; alpha/stream/dialect as in workload.Signature.
func sig(name string, instr, fp, mem, br, brMiss, ilp float64, ws units.Bytes, alpha, stream, dialect float64) workload.Signature {
	return workload.Signature{
		Name:               name,
		Instructions:       instr * 1e12,
		FPFraction:         fp,
		MemFraction:        mem,
		BranchFraction:     br,
		BranchMissRate:     brMiss,
		ILP:                ilp,
		Footprint:          ws,
		Alpha:              alpha,
		StreamFraction:     stream,
		RemoteFraction:     0.04,
		DialectSensitivity: dialect,
	}
}

// suite is the full CPU2006 pool, in SPEC numbering order.
var suite = []*Benchmark{
	// ---- CINT2006 ------------------------------------------------------
	{sig("400.perlbench", 1.2, 0.00, 0.38, 0.21, 0.050, 1.9, 60*units.MiB, 0.30, 0.02, 1.6), CINT},
	{sig("401.bzip2", 1.4, 0.00, 0.34, 0.15, 0.060, 1.7, 8*units.MiB, 0.45, 0.10, 1.1), CINT},
	{sig("403.gcc", 1.0, 0.00, 0.40, 0.20, 0.055, 1.6, 80*units.MiB, 0.40, 0.05, 1.7), CINT},
	{sig("429.mcf", 0.4, 0.00, 0.45, 0.17, 0.065, 1.1, 860*units.MiB, 0.85, 0.05, 1.0), CINT},
	{sig("445.gobmk", 1.1, 0.00, 0.33, 0.19, 0.085, 1.5, 28*units.MiB, 0.35, 0.02, 1.4), CINT},
	{sig("456.hmmer", 1.9, 0.00, 0.42, 0.08, 0.015, 2.8, 24*units.MiB, 0.25, 0.08, 0.9), CINT},
	{sig("458.sjeng", 1.3, 0.00, 0.29, 0.20, 0.090, 1.6, 170*units.MiB, 0.30, 0.02, 1.3), CINT},
	{sig("462.libquantum", 1.6, 0.00, 0.36, 0.13, 0.010, 2.4, 96*units.MiB, 0.95, 0.85, 0.8), CINT},
	{sig("464.h264ref", 2.2, 0.00, 0.41, 0.09, 0.025, 2.6, 26*units.MiB, 0.30, 0.12, 1.2), CINT},
	{sig("471.omnetpp", 0.7, 0.00, 0.43, 0.18, 0.045, 1.2, 150*units.MiB, 0.75, 0.04, 1.3), CINT},
	{sig("473.astar", 0.9, 0.00, 0.40, 0.16, 0.055, 1.3, 180*units.MiB, 0.65, 0.04, 1.1), CINT},
	{sig("483.xalancbmk", 0.9, 0.00, 0.42, 0.22, 0.040, 1.4, 190*units.MiB, 0.60, 0.04, 1.6), CINT},
	// ---- CFP2006 -------------------------------------------------------
	{sig("410.bwaves", 1.8, 0.36, 0.40, 0.03, 0.005, 2.9, 880*units.MiB, 0.90, 0.65, 0.9), CFP},
	{sig("416.gamess", 2.4, 0.30, 0.36, 0.07, 0.012, 2.7, 12*units.MiB, 0.25, 0.03, 1.2), CFP},
	{sig("433.milc", 1.0, 0.28, 0.42, 0.04, 0.006, 2.0, 680*units.MiB, 0.88, 0.55, 0.9), CFP},
	{sig("434.zeusmp", 1.5, 0.32, 0.38, 0.05, 0.008, 2.4, 510*units.MiB, 0.70, 0.40, 1.0), CFP},
	{sig("435.gromacs", 2.0, 0.34, 0.34, 0.06, 0.010, 2.9, 14*units.MiB, 0.30, 0.06, 1.1), CFP},
	{sig("436.cactusADM", 1.3, 0.38, 0.41, 0.02, 0.004, 2.2, 640*units.MiB, 0.80, 0.50, 0.9), CFP},
	{sig("437.leslie3d", 1.4, 0.35, 0.42, 0.03, 0.005, 2.3, 130*units.MiB, 0.78, 0.55, 0.9), CFP},
	{sig("444.namd", 2.3, 0.33, 0.33, 0.05, 0.009, 3.0, 46*units.MiB, 0.35, 0.05, 1.0), CFP},
	{sig("447.dealII", 1.5, 0.26, 0.40, 0.09, 0.020, 2.1, 120*units.MiB, 0.55, 0.12, 1.3), CFP},
	{sig("450.soplex", 0.8, 0.22, 0.44, 0.10, 0.030, 1.5, 430*units.MiB, 0.72, 0.15, 1.2), CFP},
	{sig("453.povray", 1.9, 0.28, 0.35, 0.12, 0.030, 2.4, 1*units.MiB, 0.20, 0.01, 1.3), CFP},
	{sig("454.calculix", 1.8, 0.30, 0.37, 0.06, 0.012, 2.5, 80*units.MiB, 0.50, 0.18, 1.1), CFP},
	{sig("459.GemsFDTD", 1.2, 0.34, 0.43, 0.03, 0.004, 2.2, 800*units.MiB, 0.85, 0.60, 0.9), CFP},
	{sig("465.tonto", 1.9, 0.31, 0.36, 0.08, 0.015, 2.5, 40*units.MiB, 0.35, 0.05, 1.2), CFP},
	{sig("470.lbm", 1.1, 0.37, 0.42, 0.01, 0.002, 2.6, 400*units.MiB, 0.92, 0.80, 0.8), CFP},
	{sig("481.wrf", 1.7, 0.30, 0.38, 0.06, 0.011, 2.3, 680*units.MiB, 0.60, 0.35, 1.1), CFP},
	{sig("482.sphinx3", 1.3, 0.25, 0.41, 0.08, 0.018, 1.9, 180*units.MiB, 0.68, 0.25, 1.1), CFP},
}

// Result is one benchmark observation on one machine: ST and SMT throughput
// runs with their counters (the paper collects both modes, §4, to observe
// the benchmark under different cache and bandwidth pressure). Their metric
// vectors, ST then SMT, are its coordinates in surrogate matching.
type Result struct {
	Bench   string
	Machine string

	ST  hpm.Counters
	SMT hpm.Counters
}

// RunBenchmark executes one benchmark on a machine in throughput mode
// (every core busy with an instance). With noise set, counters carry
// measurement jitter keyed by noiseKey.
func RunBenchmark(b *Benchmark, m *arch.Machine, noise bool, noiseKey string) (Result, error) {
	st, err := hpm.Run(&b.Sig, hpm.Config{
		Machine: m, Mode: hpm.ST,
		ActiveTasksPerNode: m.CoresPerNode,
		MeasureNoise:       noise, NoiseKey: noiseKey + "|st",
	})
	if err != nil {
		return Result{}, fmt.Errorf("spec: %s on %s: %w", b.Name(), m.Name, err)
	}
	smtCfg := hpm.Config{
		Machine: m, Mode: hpm.SMT,
		ActiveTasksPerNode: m.CoresPerNode * m.Proc.SMTWays,
		MeasureNoise:       noise, NoiseKey: noiseKey + "|smt",
	}
	if m.Proc.SMTWays <= 1 {
		// No SMT on this machine: reuse the ST observation so the
		// character vector stays fixed-width.
		smtCfg.Mode = hpm.ST
		smtCfg.ActiveTasksPerNode = m.CoresPerNode
	}
	smt, err := hpm.Run(&b.Sig, smtCfg)
	if err != nil {
		return Result{}, fmt.Errorf("spec: %s on %s (SMT): %w", b.Name(), m.Name, err)
	}
	return Result{Bench: b.Name(), Machine: m.Name, ST: st, SMT: smt}, nil
}

// RunSuite runs the whole pool on a machine, returning results keyed by
// benchmark name. This stands in for "published SPEC data for the target".
func RunSuite(m *arch.Machine, noise bool) (map[string]Result, error) {
	out := make(map[string]Result, len(suite))
	for _, b := range suite {
		r, err := RunBenchmark(b, m, noise, "suite")
		if err != nil {
			return nil, err
		}
		out[b.Name()] = r
	}
	return out, nil
}

// SortedNames returns the keys of a result map in suite order (unknown names
// sorted last alphabetically), for deterministic iteration.
func SortedNames(results map[string]Result) []string {
	order := make(map[string]int, len(suite))
	for i, b := range suite {
		order[b.Name()] = i
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}
