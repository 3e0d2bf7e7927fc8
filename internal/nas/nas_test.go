package nas

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/mpi"
	"repro/internal/units"
)

func TestSpecFor(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, c := range Classes() {
			s, err := SpecFor(b, c)
			if err != nil {
				t.Fatalf("%s.%s: %v", b, c, err)
			}
			if s.Zones() <= 0 || s.Points() <= 0 || s.Steps <= 0 {
				t.Errorf("%s.%s: degenerate spec", b, c)
			}
		}
	}
	if _, err := SpecFor(BT, Class('A')); err == nil {
		t.Error("class A is not validated in the paper; must error")
	}
	if _, err := SpecFor(Benchmark("FT-MZ"), ClassC); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestZoneCounts(t *testing.T) {
	cases := []struct {
		b     Benchmark
		c     Class
		zones int
	}{
		{BT, ClassC, 256}, {BT, ClassD, 1024},
		{SP, ClassC, 256}, {SP, ClassD, 1024},
		{LU, ClassC, 16}, {LU, ClassD, 16},
	}
	for _, tc := range cases {
		if got := MaxRanks(tc.b, tc.c); got != tc.zones {
			t.Errorf("%s.%s zones = %d, want %d", tc.b, tc.c, got, tc.zones)
		}
	}
}

func TestPaperRankCounts(t *testing.T) {
	if got := PaperRankCounts(LU); len(got) != 1 || got[0] != 16 {
		t.Errorf("LU-MZ runs at 16 ranks only, got %v", got)
	}
	if got := PaperRankCounts(BT); len(got) != 4 || got[3] != 128 {
		t.Errorf("BT-MZ rank sweep = %v", got)
	}
}

func TestZoneLayoutCoversGrid(t *testing.T) {
	for _, b := range Benchmarks() {
		inst, err := New(Config{Bench: b, Class: ClassC, Ranks: 16})
		if err != nil {
			t.Fatal(err)
		}
		s := inst.Spec
		// Sum of zone widths along each axis row must equal the grid.
		var xTotal int
		for i := 0; i < s.ZonesX; i++ {
			xTotal += inst.Zones[inst.zoneAt(i, 0)].NX
		}
		if xTotal != s.GridX {
			t.Errorf("%s: x spans sum to %d, want %d", b, xTotal, s.GridX)
		}
		var yTotal int
		for j := 0; j < s.ZonesY; j++ {
			yTotal += inst.Zones[inst.zoneAt(0, j)].NY
		}
		if yTotal != s.GridY {
			t.Errorf("%s: y spans sum to %d, want %d", b, yTotal, s.GridY)
		}
		// Total points must be conserved.
		var pts float64
		for _, z := range inst.Zones {
			pts += z.Points()
		}
		if math.Abs(pts-s.Points()) > 1e-6 {
			t.Errorf("%s: zones cover %v points, grid has %v", b, pts, s.Points())
		}
	}
}

func TestBTZoneRatio(t *testing.T) {
	inst, err := New(Config{Bench: BT, Class: ClassC, Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), 0.0
	for _, z := range inst.Zones {
		a := float64(z.NX * z.NY)
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	ratio := max / min
	if ratio < 10 || ratio > 40 {
		t.Errorf("BT-MZ zone area ratio = %v, want ≈20", ratio)
	}
	// SP zones are equal (within integer rounding).
	sp, _ := New(Config{Bench: SP, Class: ClassC, Ranks: 16})
	min, max = math.Inf(1), 0.0
	for _, z := range sp.Zones {
		a := float64(z.NX * z.NY)
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if max/min > 1.2 {
		t.Errorf("SP-MZ zones should be near-equal, ratio %v", max/min)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Bench: LU, Class: ClassC, Ranks: 32}); err == nil {
		t.Error("LU-MZ cannot exceed 16 ranks")
	}
	if _, err := New(Config{Bench: BT, Class: ClassC, Ranks: 0}); err == nil {
		t.Error("zero ranks must fail")
	}
}

// Property: ownership covers all ranks and every zone has an owner.
func TestBalanceCoversAllRanks(t *testing.T) {
	f := func(rSeed uint8) bool {
		ranks := []int{16, 32, 64, 128}[rSeed%4]
		inst, err := New(Config{Bench: BT, Class: ClassC, Ranks: ranks})
		if err != nil {
			return false
		}
		seen := make([]bool, ranks)
		for _, o := range inst.Owner {
			if o < 0 || o >= ranks {
				return false
			}
			seen[o] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestImbalanceShape(t *testing.T) {
	// BT-MZ: balance is good at 16 ranks (16 zones each to mix sizes)
	// and collapses at 128 ranks (2 zones each, 20:1 spread) — the
	// mechanism behind Table 1's exploding communication share.
	bt16, _ := New(Config{Bench: BT, Class: ClassC, Ranks: 16})
	bt128, _ := New(Config{Bench: BT, Class: ClassC, Ranks: 128})
	if bt16.Imbalance() > 1.1 {
		t.Errorf("BT-MZ@16 should balance well, got %v", bt16.Imbalance())
	}
	if bt128.Imbalance() < 1.5 {
		t.Errorf("BT-MZ@128 should be badly imbalanced, got %v", bt128.Imbalance())
	}
	// Class D at 128 ranks balances better than class C (8 zones each).
	btD128, _ := New(Config{Bench: BT, Class: ClassD, Ranks: 128})
	if btD128.Imbalance() >= bt128.Imbalance() {
		t.Errorf("class D should balance better at 128: D=%v C=%v",
			btD128.Imbalance(), bt128.Imbalance())
	}
	// SP-MZ stays balanced everywhere.
	sp128, _ := New(Config{Bench: SP, Class: ClassC, Ranks: 128})
	if sp128.Imbalance() > 1.1 {
		t.Errorf("SP-MZ@128 should stay balanced, got %v", sp128.Imbalance())
	}
}

func TestExchangeSymmetry(t *testing.T) {
	inst, err := New(Config{Bench: SP, Class: ClassC, Ranks: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Every send must have exactly one matching recv (peer, bytes, tag).
	type key struct {
		from, to, tag int
		bytes         int64
	}
	sends := map[key]int{}
	for r, list := range inst.sends {
		for _, fm := range list {
			sends[key{r, fm.peer, fm.tag, int64(fm.bytes)}]++
		}
	}
	recvs := map[key]int{}
	for r, list := range inst.recvs {
		for _, fm := range list {
			recvs[key{fm.peer, r, fm.tag, int64(fm.bytes)}]++
		}
	}
	if len(sends) != len(recvs) {
		t.Fatalf("sends %d vs recvs %d", len(sends), len(recvs))
	}
	for k, n := range sends {
		if recvs[k] != n {
			t.Fatalf("unmatched exchange %+v", k)
		}
	}
	// No rank sends to itself.
	for r, list := range inst.sends {
		for _, fm := range list {
			if fm.peer == r {
				t.Fatalf("rank %d sends to itself", r)
			}
		}
	}
}

func TestSignatures(t *testing.T) {
	inst, err := New(Config{Bench: BT, Class: ClassC, Ranks: 64})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 64; r += 13 {
		if err := inst.rankStepSignature(r).Validate(); err != nil {
			t.Errorf("rank %d signature: %v", r, err)
		}
	}
	mean := inst.MeanRankSignature()
	if err := mean.Validate(); err != nil {
		t.Fatal(err)
	}
	if mean.Name != "BT-MZ.C" {
		t.Errorf("signature name = %q", mean.Name)
	}
	// Strong scaling: footprint per rank shrinks with more ranks.
	inst128, _ := New(Config{Bench: BT, Class: ClassC, Ranks: 128})
	if inst128.MeanRankSignature().Footprint >= mean.Footprint {
		t.Error("per-rank footprint must shrink under strong scaling")
	}
}

func TestRunSmall(t *testing.T) {
	res, err := Run(Config{Bench: LU, Class: ClassC, Ranks: 16}, arch.MustGet(arch.Hydra))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	pf := res.Profile
	if pf.Ranks() != 16 {
		t.Fatalf("profile ranks = %d", pf.Ranks())
	}
	// The paper's Table 1: LU-MZ class C communicates ~1.4 % on the base
	// machine at 16 tasks. Accept a generous band around it.
	cf := 100 * pf.CommFraction()
	if cf < 0.2 || cf > 8 {
		t.Errorf("LU-MZ.C comm%% = %v, paper says ≈1.4", cf)
	}
	// P2P-NB must dominate communication; collectives must be tiny.
	ce := pf.ClassElapsed()
	if ce[mpi.ClassP2PNB] <= ce[mpi.ClassCollective] {
		t.Error("boundary exchange must dominate collectives")
	}
	if ce[mpi.ClassP2PB] != 0 {
		t.Error("NAS-MZ issues no blocking point-to-point")
	}
}

// TestRoutinesPinned holds Routines to what a profile records: the IMB
// tables a projection is served measure only what prices these routines.
func TestRoutinesPinned(t *testing.T) {
	for _, cfg := range []Config{
		{Bench: BT, Class: ClassC, Ranks: 16},
		{Bench: LU, Class: ClassC, Ranks: 16},
		{Bench: SP, Class: ClassC, Ranks: 16},
		{Bench: LU, Class: ClassC, Ranks: 4},
	} {
		res, err := Run(cfg, arch.MustGet(arch.Hydra))
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Clone(res.Profile.Routines())
		slices.Sort(got)
		if want := Routines(); !slices.Equal(got, want) {
			t.Errorf("%s profiles %v, Routines() lists %v", cfg, got, want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Bench: LU, Class: ClassC, Ranks: 16}
	a, err := Run(cfg, arch.MustGet(arch.Westmere))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, arch.MustGet(arch.Westmere))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
}

// runAlloc is the bytes one BT-MZ.C@16 run on Hydra allocates at steps
// timesteps.
func runAlloc(t *testing.T, steps int) uint64 {
	t.Helper()
	inst, err := New(Config{Bench: BT, Class: ClassC, Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	inst.Spec.Steps = steps
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := inst.Run(arch.MustGet(arch.Hydra)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunAllocationFlatInSteps: a wait frees its requests, so a run holds
// only the messages in flight and four times the timesteps must not cost
// four times the memory. Before waits freed them, every message carved a
// fresh Request and Signal: 11.96 MB at 50 steps, 46.26 MB at 200.
func TestRunAllocationFlatInSteps(t *testing.T) {
	const steps = 50
	runAlloc(t, steps) // start the coroutines every later run reuses
	short, long := runAlloc(t, steps), runAlloc(t, 4*steps)
	t.Logf("%d steps: %d B; %d steps: %d B", steps, short, 4*steps, long)
	if float64(long) >= 1.25*float64(short) {
		t.Errorf("%d steps allocated %.2f× what %d did, want under 1.25×", 4*steps, float64(long)/float64(short), steps)
	}
}

// TestRunAllocatesPerWorld: a profiled run allocates per world, not per
// rank or per message — one process body for all ranks, one slab of request
// lists, the compute model's cache levels on the stack and the profiler's
// offset histograms in dense slab columns — so BT-MZ.C at 128 ranks
// allocates within a small constant of the run at 16. Before, each rank
// cost a closure, a request list and two cache-level slices, and each
// (routine, size) key an offset list grown by append: 544 allocations at
// 16 ranks and 1 199 at 128. Per-rank match lists and peer scratch kept a
// gap of ~42 (213 against 255); one match table per world made it ~19
// (136 against 155), most of it the table's growth to the larger world's
// unmatched messages. With the table sized once for a step's messages and
// the profiler's keys in one index, the runs cost 106 and 127 (119 and
// 142 under -race): the gap left is the kernel's and the profiler's slabs
// for more processes and keys.
func TestRunAllocatesPerWorld(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	allocs := func(ranks int) float64 {
		inst, err := New(Config{Bench: BT, Class: ClassC, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := inst.Run(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a128 := allocs(16), allocs(128)
	t.Logf("BT-MZ.C on hydra: %.0f allocations at 16 ranks, %.0f at 128", a16, a128)
	if a128 > a16+25 {
		t.Errorf("a run allocates with ranks: %.0f objects at 16 ranks, %.0f at 128", a16, a128)
	}
}

func TestRunValidation(t *testing.T) {
	inst, _ := New(Config{Bench: BT, Class: ClassC, Ranks: 256})
	if _, err := inst.Run(arch.MustGet(arch.Power6)); err == nil {
		t.Error("256 ranks cannot fit POWER6's 128 cores")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Bench: BT, Class: ClassD, Ranks: 64}
	if c.String() != "BT-MZ.D×64" {
		t.Errorf("String = %q", c.String())
	}
	if c.Name() != "BT-MZ.D" {
		t.Errorf("Name = %q", c.Name())
	}
}

// TestProfileTextPinned pins the Table 1 text surface: the profile nasrun
// prints for BT-MZ.C@16 on Hydra, by SHA-256.
func TestProfileTextPinned(t *testing.T) {
	res, err := Run(Config{Bench: BT, Class: ClassC, Ranks: 16}, arch.MustGet(arch.Hydra))
	if err != nil {
		t.Fatal(err)
	}
	const want = "129a8d415135aefd7624872960b312123493f28673987324688f530c6a9b0c91"
	text := res.Profile.String()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
		t.Errorf("profile text SHA-256 = %s, want %s:\n%s", got, want, text)
	}
}

// TestExchangeListsSizedExactly: each rank's send and receive lists hold
// its messages in zone-then-direction order — the order the rank posts
// them, so every tag and event — exactly as appending face by face builds
// them, and each list's capacity is its length.
func TestExchangeListsSizedExactly(t *testing.T) {
	for _, cfg := range []Config{
		{Bench: BT, Class: ClassC, Ranks: 16}, {Bench: SP, Class: ClassC, Ranks: 64},
		{Bench: BT, Class: ClassD, Ranks: 128}, {Bench: LU, Class: ClassC, Ranks: 16},
	} {
		inst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := inst.Spec
		sends, recvs := make([][]faceMsg, cfg.Ranks), make([][]faceMsg, cfg.Ranks)
		for zi, z := range inst.Zones {
			for d, dir := range [][3]int{{+1, 0, z.NY * z.NZ}, {-1, 0, z.NY * z.NZ}, {0, +1, z.NX * z.NZ}, {0, -1, z.NX * z.NZ}} {
				ni := inst.zoneAt(z.I+dir[0], z.J+dir[1])
				src, dst := inst.Owner[zi], inst.Owner[ni]
				if ni == zi || src == dst {
					continue
				}
				bytes := units.Bytes(dir[2]) * units.Bytes(s.GhostVars*s.WordBytes)
				sends[src] = append(sends[src], faceMsg{peer: dst, bytes: bytes, tag: zi*4 + d})
				recvs[dst] = append(recvs[dst], faceMsg{peer: src, bytes: bytes, tag: zi*4 + d})
			}
		}
		for r := 0; r < cfg.Ranks; r++ {
			for _, c := range []struct {
				dir       string
				got, want []faceMsg
			}{{"sends", inst.sends[r], sends[r]}, {"recvs", inst.recvs[r], recvs[r]}} {
				if !slices.Equal(c.got, c.want) {
					t.Fatalf("%s rank %d %s = %v, want %v", cfg, r, c.dir, c.got, c.want)
				}
				if cap(c.got) != len(c.got) {
					t.Errorf("%s rank %d %s: capacity %d for %d messages", cfg, r, c.dir, cap(c.got), len(c.got))
				}
			}
		}
	}
}

// TestMessageSpanCoversEveryRequest holds MessageSpan to every instance a
// request can name — each benchmark and class at every rank count from 2 to
// MaxRanks: every rank sends and receives at least one face (so no Waitall
// is priced at 0 B), and every face lies inside the span; and both of the
// span's ends are sent. The IMB tables a NAS-MZ
// projection is served measure only the sizes bracketing the span, so this
// is what keeps every lookup on a measured pair.
func TestMessageSpanCoversEveryRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("lays out ~2 600 instances")
	}
	lo, hi := MessageSpan()
	if lo != 20160 || hi != 1109760 {
		t.Errorf("MessageSpan() = %d, %d B, want 20160, 1109760", lo, hi)
	}
	var sawLo, sawHi bool
	for _, b := range Benchmarks() {
		for _, c := range Classes() {
			for ranks := 2; ranks <= MaxRanks(b, c); ranks++ {
				inst, err := New(Config{Bench: b, Class: c, Ranks: ranks})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < ranks; r++ {
					if len(inst.sends[r]) == 0 || len(inst.recvs[r]) == 0 {
						t.Fatalf("%s: rank %d sends %d and receives %d faces", inst.Cfg, r, len(inst.sends[r]), len(inst.recvs[r]))
					}
					for _, m := range inst.sends[r] {
						if m.bytes < lo || m.bytes > hi {
							t.Fatalf("%s: rank %d sends %d B, outside the span %d–%d B", inst.Cfg, r, m.bytes, lo, hi)
						}
						sawLo, sawHi = sawLo || m.bytes == lo, sawHi || m.bytes == hi
					}
				}
			}
		}
	}
	if !sawLo || !sawHi {
		t.Errorf("no instance sends the span's ends: %d B sent %v, %d B sent %v", lo, sawLo, hi, sawHi)
	}
}
