package hpm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/units"
	"repro/internal/workload"
)

func kernel() *workload.Signature {
	return &workload.Signature{
		Name:               "test-kernel",
		Instructions:       5e9,
		FPFraction:         0.30,
		MemFraction:        0.35,
		BranchFraction:     0.08,
		BranchMissRate:     0.02,
		ILP:                2.2,
		Footprint:          48 * units.MiB,
		Alpha:              0.45,
		StreamFraction:     0.25,
		RemoteFraction:     0.05,
		DialectSensitivity: 1,
	}
}

func run(t *testing.T, sig *workload.Signature, machine string, mode Mode) Counters {
	t.Helper()
	c, err := Run(sig, Config{Machine: arch.MustGet(machine), Mode: mode})
	if err != nil {
		t.Fatalf("Run on %s: %v", machine, err)
	}
	return c
}

func TestRunBasicSanity(t *testing.T) {
	for _, name := range arch.Names() {
		c := run(t, kernel(), name, ST)
		if c.Runtime <= 0 {
			t.Errorf("%s: non-positive runtime", name)
		}
		if c.CPI < c.CPICompletion {
			t.Errorf("%s: total CPI below completion CPI", name)
		}
		if math.Abs(c.CPIStallTotal-(c.CPIStallMem+c.CPIStallBranch+c.CPIStallTrans)) > 1e-12 {
			t.Errorf("%s: stall breakdown does not sum", name)
		}
		for i, v := range c.Vector() {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", name, MetricNames()[i], v)
			}
		}
	}
}

func TestVectorLayout(t *testing.T) {
	c := run(t, kernel(), arch.Hydra, ST)
	v := c.Vector()
	if len(v) != NumMetrics || len(MetricNames()) != NumMetrics {
		t.Fatalf("vector length %d, names %d, want %d", len(v), len(MetricNames()), NumMetrics)
	}
	if v[0] != c.CPICompletion || v[4] != c.FPPerInstr || v[12] != c.MemBWGBs {
		t.Error("vector layout does not match MetricNames")
	}
	wantGroups := []int{1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 5, 5, 6}
	for i, g := range wantGroups {
		if MetricGroupOf(i) != g {
			t.Errorf("MetricGroupOf(%d) = %d, want %d", i, MetricGroupOf(i), g)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, kernel(), arch.Westmere, ST)
	b := run(t, kernel(), arch.Westmere, ST)
	if a != b {
		t.Fatal("identical runs must produce identical counters")
	}
	cfg := Config{Machine: arch.MustGet(arch.Westmere), MeasureNoise: true, NoiseKey: "k1"}
	n1, err := Run(kernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Run(kernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatal("noise must be deterministic per key")
	}
	cfg.NoiseKey = "k2"
	n3, _ := Run(kernel(), cfg)
	if n1 == n3 {
		t.Fatal("different noise keys must differ")
	}
}

func TestReferenceMachineHasNoIdiosyncrasy(t *testing.T) {
	// On the base machine the model is exact: doubling instructions
	// exactly doubles runtime (no idio factor distortion and CPI is
	// unchanged).
	sig := kernel()
	a := run(t, sig, arch.Hydra, ST)
	sig2 := sig.ScaledWork(2)
	b := run(t, sig2, arch.Hydra, ST)
	if math.Abs(b.Runtime/a.Runtime-2) > 1e-9 {
		t.Errorf("runtime ratio = %v, want exactly 2", b.Runtime/a.Runtime)
	}
}

func TestIdiosyncrasyGrowsWithISADistance(t *testing.T) {
	// Average |response deviation| across many kernels must follow the
	// paper's ordering: POWER6 < BG/P < Westmere.
	devOn := func(machine string) float64 {
		m := arch.MustGet(machine)
		var sum float64
		const n = 120
		for i := 0; i < n; i++ {
			sig := kernel()
			sig.Name = fmt.Sprintf("probe-%d", i)
			withIdio, err := Run(sig, Config{Machine: m})
			if err != nil {
				t.Fatal(err)
			}
			old := IdioScale
			IdioScale = 0
			pure, err := Run(sig, Config{Machine: m})
			IdioScale = old
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(withIdio.Runtime/pure.Runtime - 1)
		}
		return sum / n
	}
	p6, bg, wm := devOn(arch.Power6), devOn(arch.BlueGene), devOn(arch.Westmere)
	// The sigma parameters are strictly ordered (see arch.ISADistance);
	// sampled means over a finite probe set track them loosely: both
	// far-ISA machines must deviate more than POWER6, and Westmere (the
	// largest sigma) must not fall far below BG/P.
	if !(p6 < bg && p6 < wm) {
		t.Errorf("idiosyncrasy ordering broken: p6=%v bg=%v wm=%v", p6, bg, wm)
	}
	if wm < 0.8*bg {
		t.Errorf("Westmere deviation %v implausibly below BG/P %v", wm, bg)
	}
	if devOn(arch.Hydra) != 0 {
		t.Error("base machine must have zero idiosyncrasy")
	}
}

func TestNoiseShrinksWithRuntime(t *testing.T) {
	// Class-D-style long runs must observe counters more precisely than
	// class-C-style short runs.
	spread := func(scale float64) float64 {
		var devs []float64
		for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			sig := kernel()
			sig.Instructions *= scale
			noisy, err := Run(sig, Config{Machine: arch.MustGet(arch.Hydra), MeasureNoise: true, NoiseKey: key})
			if err != nil {
				t.Fatal(err)
			}
			clean, _ := Run(sig, Config{Machine: arch.MustGet(arch.Hydra)})
			devs = append(devs, math.Abs(noisy.CPIStallMem/clean.CPIStallMem-1))
		}
		var s float64
		for _, d := range devs {
			s += d
		}
		return s / float64(len(devs))
	}
	short := spread(0.02) // ~tens of ms
	long := spread(20)    // ~minutes
	if long >= short {
		t.Errorf("noise must shrink with runtime: short=%v long=%v", short, long)
	}
}

func TestSMTSlowsThreadButHelpsNode(t *testing.T) {
	st := run(t, kernel(), arch.Hydra, ST)
	smt := run(t, kernel(), arch.Hydra, SMT)
	if smt.Runtime <= st.Runtime {
		t.Error("a single SMT thread must be slower than ST")
	}
	p := arch.MustGet(arch.Hydra).Proc
	// Node throughput: SMTWays threads at smt speed vs 1 at st speed.
	if float64(p.SMTWays)/smt.Runtime <= 1/st.Runtime {
		t.Error("SMT must raise core throughput")
	}
}

func TestCacheFootprintScaling(t *testing.T) {
	// Partitioning across more ranks shrinks the footprint. Once the
	// per-rank footprint fits in L3, data-from-L3 falls monotonically and
	// eventually hits zero — the ACSM signal. (Below 16 ranks the 256 MiB
	// footprint is memory-resident and L3 reloads first *grow* as data
	// moves memory→L3; ACSM only uses the decreasing tail.)
	sig := kernel()
	sig.Footprint = 256 * units.MiB
	prev := math.Inf(1)
	for _, ranks := range []int{16, 64, 256, 1024} {
		c := run(t, sig.Partitioned(ranks), arch.Hydra, ST)
		if c.DataFromL3 > prev+1e-12 {
			t.Errorf("DataFromL3 must not grow with ranks (at %d: %v > %v)", ranks, c.DataFromL3, prev)
		}
		prev = c.DataFromL3
	}
	tiny := sig.Partitioned(1 << 16) // footprint ≪ L2
	c := run(t, tiny, arch.Hydra, ST)
	if c.DataFromL3 != 0 || c.DataFromLocal != 0 {
		// Streaming still reaches memory; only the reuse part vanishes.
		if c.DataFromL3 != 0 {
			t.Errorf("tiny footprint must not reload from L3, got %v", c.DataFromL3)
		}
	}
}

func TestMemoryBoundKernelStallsMore(t *testing.T) {
	lean := kernel()
	lean.Footprint = 16 * units.KiB // L1-resident
	fat := kernel()
	fat.Footprint = 2 * units.GiB
	fat.Alpha = 0.9
	cl := run(t, lean, arch.Hydra, ST)
	cf := run(t, fat, arch.Hydra, ST)
	if cf.CPIStallMem <= cl.CPIStallMem {
		t.Error("cache-hostile kernel must stall more")
	}
	if cf.Runtime <= cl.Runtime {
		t.Error("cache-hostile kernel must run longer")
	}
}

func TestBandwidthContention(t *testing.T) {
	sig := kernel()
	sig.Footprint = 4 * units.GiB
	sig.Alpha = 0.95
	sig.StreamFraction = 0.9
	m := arch.MustGet(arch.Westmere)
	alone, err := Run(sig, Config{Machine: m, ActiveTasksPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Run(sig, Config{Machine: m, ActiveTasksPerNode: m.CoresPerNode})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Runtime <= alone.Runtime {
		t.Error("a packed node must slow a bandwidth-bound task")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(kernel(), Config{}); err == nil {
		t.Error("nil machine must error")
	}
	bad := kernel()
	bad.Alpha = 0
	if _, err := Run(bad, Config{Machine: arch.MustGet(arch.Hydra)}); err == nil {
		t.Error("invalid signature must error")
	}
	m := arch.MustGet(arch.BlueGene) // 4 cores, no SMT
	if _, err := Run(kernel(), Config{Machine: m, ActiveTasksPerNode: 9}); err == nil {
		t.Error("oversubscribed node must error")
	}
}

func TestBlueGeneFlatMemoryHasNoRemote(t *testing.T) {
	c := run(t, kernel(), arch.BlueGene, ST)
	if c.DataFromRemote != 0 {
		t.Errorf("BG/P has flat memory; remote reloads = %v", c.DataFromRemote)
	}
	w := run(t, kernel(), arch.Westmere, ST)
	if w.DataFromRemote == 0 {
		t.Error("NUMA machine must show remote reloads")
	}
}

// Property: runtime scales linearly with instruction count on the reference
// machine regardless of the mix.
func TestRuntimeLinearInWork(t *testing.T) {
	f := func(mult uint8) bool {
		k := float64(mult%50) + 1
		sig := kernel()
		a, err := Run(sig, Config{Machine: arch.MustGet(arch.Hydra)})
		if err != nil {
			return false
		}
		b, err := Run(sig.ScaledWork(k), Config{Machine: arch.MustGet(arch.Hydra)})
		if err != nil {
			return false
		}
		return math.Abs(b.Runtime/a.Runtime-k) < 1e-6*k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFasterClockWinsOnCacheResident(t *testing.T) {
	// A tiny-footprint compute kernel should run fastest on the highest
	// effective (clock/CPI) machine — POWER6 at 4.7 GHz beats BG/P at
	// 850 MHz by a wide margin.
	old := IdioScale
	IdioScale = 0
	defer func() { IdioScale = old }()
	sig := kernel()
	sig.Footprint = 16 * units.KiB
	sig.StreamFraction = 0 // truly cache-resident: no streaming traffic
	p6 := run(t, sig, arch.Power6, ST)
	bg := run(t, sig, arch.BlueGene, ST)
	if p6.Runtime >= bg.Runtime/2 {
		t.Errorf("POWER6 %v should be much faster than BG/P %v on compute", p6.Runtime, bg.Runtime)
	}
}

// MetricNames lists the flattened metric vector's entries, in order, grouped
// G1..G6.
func MetricNames() []string {
	return []string{
		"g1.cpi_completion",
		"g2.cpi_stall_mem", "g2.cpi_stall_branch", "g2.cpi_stall_trans",
		"g3.fp_per_instr",
		"g4.erat_miss_per_k", "g4.slb_miss_per_k", "g4.tlb_miss_per_k",
		"g5.data_from_l2", "g5.data_from_l3", "g5.data_from_local", "g5.data_from_remote",
		"g6.mem_bw_gbs",
	}
}
