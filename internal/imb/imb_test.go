package imb

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/units"
)

// smallSizes keeps unit-test sweeps fast.
func smallSizes() []units.Bytes { return units.Pow2Sizes(16, 64*units.KiB) }

func runTable(t *testing.T, machine string, ranks int) *Table {
	t.Helper()
	tab, err := Run(arch.MustGet(machine), ranks, smallSizes())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunProducesAllRoutines(t *testing.T) {
	tab := runTable(t, arch.Hydra, 8)
	want := []mpi.Routine{
		mpi.RoutineSend, mpi.RoutineRecv, mpi.RoutineSendrecv,
		mpi.RoutineBcast, mpi.RoutineReduce, mpi.RoutineAllreduce, PingPing,
	}
	for _, rt := range want {
		if _, ok := tab.PerOp[rt]; !ok {
			t.Errorf("routine %s missing from table", rt)
		}
	}
	for _, size := range smallSizes() {
		if v := tab.PerOp[mpi.RoutineBcast][size]; v <= 0 {
			t.Errorf("bcast at %d B: non-positive time %v", size, v)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(arch.MustGet(arch.Hydra), 1, nil); err == nil {
		t.Error("1 rank must fail")
	}
	if _, err := Run(arch.MustGet(arch.Power6), 4096, nil); err == nil {
		t.Error("oversubscription must fail")
	}
}

func TestTimesGrowWithSize(t *testing.T) {
	tab := runTable(t, arch.Westmere, 12)
	for _, rt := range []mpi.Routine{mpi.RoutineSendrecv, mpi.RoutineAllreduce} {
		small := tab.PerOp[rt][16]
		big := tab.PerOp[rt][64*units.KiB]
		if big <= small {
			t.Errorf("%s: time must grow with size (%v vs %v)", rt, small, big)
		}
	}
}

func TestEq1FitSane(t *testing.T) {
	tab := runTable(t, arch.Power6, 8) // 8 ranks on a 32-core node: single node
	if tab.NBOverhead() < 0 {
		t.Errorf("negative overhead %v", tab.NBOverhead())
	}
	// In-flight time must grow with size and always be positive.
	prev := units.Seconds(0)
	for _, size := range smallSizes() {
		inf := tab.NBIntra.InFlight[size]
		if inf <= 0 {
			t.Fatalf("intra in-flight at %dB = %v", size, inf)
		}
		if inf < prev*(1-1e-9) {
			t.Errorf("in-flight shrank with size at %dB: %v < %v", size, inf, prev)
		}
		prev = inf
		// Single-node job: the inter fit falls back to the intra fit.
		if tab.NBInter.InFlight[size] != inf {
			t.Errorf("single-node job must reuse the intra fit at %dB", size)
		}
	}
	// TransferNB must be monotone in the succession counts.
	if tab.TransferNB(4096, 4, 0) <= tab.TransferNB(4096, 1, 0) {
		t.Error("Eq. 1 must grow with in-flight count")
	}
}

func TestEq1IntraVsInter(t *testing.T) {
	// On a genuinely multi-node job, cross-node successions must cost
	// more per message than same-node ones at large sizes.
	tab := runTable(t, arch.BlueGene, 16) // 4 nodes of 4
	size := units.Bytes(64 * units.KiB)
	if tab.InFlightInter(size) <= tab.InFlightIntra(size) {
		t.Errorf("inter in-flight %v should exceed intra %v",
			tab.InFlightInter(size), tab.InFlightIntra(size))
	}
}

func TestInterpolationBetweenGridPoints(t *testing.T) {
	tab := runTable(t, arch.Hydra, 8)
	lo, _ := tab.Time(mpi.RoutineSendrecv, 1024)
	mid, _ := tab.Time(mpi.RoutineSendrecv, 1500)
	hi, _ := tab.Time(mpi.RoutineSendrecv, 2048)
	const eps = 1e-9 // relative float tolerance
	if mid < lo*(1-eps) || hi < mid*(1-eps) {
		t.Errorf("interpolation not monotone: %v %v %v", lo, mid, hi)
	}
	if _, err := tab.Time(mpi.Routine("MPI_Nope"), 64); err == nil {
		t.Error("unknown routine must error")
	}
}

func TestCollectivesScaleWithRanks(t *testing.T) {
	small := runTable(t, arch.Hydra, 4)
	big := runTable(t, arch.Hydra, 64)
	s := small.PerOp[mpi.RoutineAllreduce][4*units.KiB]
	b := big.PerOp[mpi.RoutineAllreduce][4*units.KiB]
	if b <= s {
		t.Errorf("allreduce must cost more at 64 ranks: %v vs %v", s, b)
	}
}

func TestBlueGeneCollectivesFlat(t *testing.T) {
	small := runTable(t, arch.BlueGene, 16)
	big := runTable(t, arch.BlueGene, 256)
	s := small.PerOp[mpi.RoutineBcast][4*units.KiB]
	b := big.PerOp[mpi.RoutineBcast][4*units.KiB]
	if b > 2*s {
		t.Errorf("BG/P tree bcast should be near-flat in ranks: 16→%v 256→%v", s, b)
	}
}

func TestDeterministicTables(t *testing.T) {
	a := runTable(t, arch.Westmere, 12)
	b := runTable(t, arch.Westmere, 12)
	for rt, sizes := range a.PerOp {
		for size, v := range sizes {
			if b.PerOp[rt][size] != v {
				t.Fatalf("nondeterministic measurement: %s@%dB %v vs %v", rt, size, v, b.PerOp[rt][size])
			}
		}
	}
	if a.NBOverhead() != b.NBOverhead() {
		t.Error("nondeterministic Eq. 1 fit")
	}
}

func TestPairPartner(t *testing.T) {
	cases := []struct{ id, ranks, want int }{
		{0, 8, 4}, {4, 8, 0}, {3, 8, 7},
		{0, 2, 1}, {1, 2, 0},
		{6, 7, -1}, // 7 ranks: half=3, pairs cover 0..5, rank 6 sits out
		{5, 7, 2},
		{0, 1, -1},
	}
	for _, c := range cases {
		if got := pairDistant(c.id, c.ranks); got != c.want {
			t.Errorf("pairDistant(%d,%d) = %d, want %d", c.id, c.ranks, got, c.want)
		}
	}
	// Pairing is symmetric where defined.
	for ranks := 2; ranks <= 9; ranks++ {
		for id := 0; id < ranks; id++ {
			p := pairDistant(id, ranks)
			if p >= 0 && pairDistant(p, ranks) != id {
				t.Errorf("pairing not symmetric at id=%d ranks=%d", id, ranks)
			}
		}
	}
}

func TestFasterNetworkFasterTable(t *testing.T) {
	// Westmere's QDR InfiniBand beats Hydra's Federation on latency and
	// bandwidth; its point-to-point table entries should be faster.
	hy := runTable(t, arch.Hydra, 32)
	wm := runTable(t, arch.Westmere, 32)
	hyT, _ := hy.Time(mpi.RoutineSendrecv, 64*units.KiB)
	wmT, _ := wm.Time(mpi.RoutineSendrecv, 64*units.KiB)
	if wmT >= hyT {
		t.Errorf("QDR should beat Federation: %v vs %v", wmT, hyT)
	}
}

func TestPingPingMeasured(t *testing.T) {
	tab := runTable(t, arch.Hydra, 8)
	for _, size := range smallSizes() {
		if v := tab.PerOp[PingPing][size]; v <= 0 {
			t.Fatalf("PingPing at %dB: non-positive time %v", size, v)
		}
	}
	// Both partners send at once: dearer than half a PingPong.
	big := smallSizes()[len(smallSizes())-1]
	if tab.PerOp[PingPing][big] <= tab.PerOp[mpi.RoutineSend][big] {
		t.Errorf("PingPing should cost at least a one-way send")
	}
}

// TestInterpSizeSkipsNonPositive is the regression test for the 1e-12
// substitution bug: a single zero (or negative) sample used to be replaced
// by 1e-12 before the log-log fit, bending the interpolated curve through
// an absurd point and poisoning every query near it. Non-positive samples
// must instead be skipped, so interpolation bridges their neighbours.
func TestInterpSizeSkipsNonPositive(t *testing.T) {
	grid := []units.Bytes{1024, 2048, 4096}
	m := map[units.Bytes]units.Seconds{
		1024: 1e-5,
		2048: 0, // corrupt sample: must be ignored, not clamped to 1e-12
		4096: 4e-5,
	}
	// Exactly on the corrupt grid point: with the bug this returned 1e-12;
	// now it log-log interpolates between the healthy neighbours, landing
	// geometrically between them.
	got := interpSize(grid, m, 2048)
	if got < 1e-5 || got > 4e-5 {
		t.Errorf("interpSize at corrupt point = %v, want within [1e-5, 4e-5]", got)
	}
	// Near the corrupt point the curve must stay monotone over the healthy
	// bracket rather than diving toward the placeholder.
	lo := interpSize(grid, m, 1500)
	hi := interpSize(grid, m, 3000)
	if !(lo >= 1e-5 && lo <= got && got <= hi && hi <= 4e-5) {
		t.Errorf("interpolation not monotone across corrupt sample: %v %v %v", lo, got, hi)
	}
	// Negative samples are equally skipped.
	m[2048] = -3
	if again := interpSize(grid, m, 2048); again != got {
		t.Errorf("negative sample handled differently from zero: %v vs %v", again, got)
	}
	// All samples corrupt: nothing to fit, return 0.
	all := map[units.Bytes]units.Seconds{1024: 0, 2048: -1}
	if v := interpSize(grid, all, 2048); v != 0 {
		t.Errorf("all-non-positive table should yield 0, got %v", v)
	}
}

// measureFresh is the reference way to take a measurement, and how Run took
// every one before it reused a world, split pairwise benchmarks into groups
// and remembered groups across tables: a new mpi.World each time, every
// rank running.
func measureFresh(m *arch.Machine, ranks int) measureFunc {
	return func(_ cell, _ []group, program func(r *mpi.Rank)) (units.Seconds, error) {
		w, err := mpi.NewWorld(m, ranks)
		if err != nil {
			return 0, err
		}
		return w.Run(program)
	}
}

// run is the full suite over any way of taking one measurement.
func run(m *arch.Machine, ranks int, sizes []units.Bytes, measure measureFunc) (*Table, error) {
	return NewSuite(m, Demand{}).table(ranks, sizes, measure)
}

// TestReusedWorldMatchesFreshWorlds holds Run, which resets one world
// between its measurements and runs a pairwise benchmark one group shape at
// a time, bitwise to the same suite on fresh, whole worlds: on one node, on
// two (so the inter fit runs), with a rank sitting out, and with groups of
// two hop shapes.
func TestReusedWorldMatchesFreshWorlds(t *testing.T) {
	for _, c := range []struct {
		machine string
		ranks   int
	}{{arch.Hydra, 16}, {arch.Hydra, 32}, {arch.BlueGene, 13}, {arch.BlueGene, 48}} {
		m := arch.MustGet(c.machine)
		got, err := Run(m, c.ranks, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(m, c.ranks, nil, measureFresh(m, c.ranks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s@%d: table from the reused world differs from the fresh-world reference", c.machine, c.ranks)
		}
	}
}

// TestIMBRunAllocs pins what reusing the world bought: a 16-rank table
// took 29 730 allocations when every measurement built its own world, and
// 4 150 with a request slice per rank per multi-Sendrecv measurement, a
// heap collOp per collective and a growing waiter slice per collective
// signal, and ~650 once pairwise benchmarks ran by group. Seeding every
// match list from one slab per world took the tables to 605, 888 and 888
// (from 652, 1 279 and 1 303), and filling the collective cells from
// netmodel's closed forms instead of simulating them to 380, 603 and 603
// (from 572, 798 and 798). Dropping Exchange — a whole-world simulation
// per size that priced no routine — and the Allgather, Alltoall and Barrier
// cells took them to 333, 556 and 549, and one process body per world in
// place of one closure per rank to 318, 429 and 422. One program per table
// in place of a closure per measurement, fits on the stack, presized cell
// maps, a free list grown by the chunk and processes linked through
// themselves in place of a growing slice took them to 93, 106 and 99: the
// bounds sit ~5 % above those, so match lists that start empty again
// (~+47 at hydra@16), or a closure per measurement (+131), fail here.
// BG/P at 128 ranks has the most groups.
func TestIMBRunAllocs(t *testing.T) {
	for _, c := range []struct {
		machine string
		ranks   int
		max     float64
	}{{arch.Hydra, 16, 98}, {arch.Hydra, 128, 112}, {arch.BlueGene, 128, 104}} {
		m := arch.MustGet(c.machine)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Run(m, c.ranks, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("imb.Run(%s, %d) made %.0f allocations, want at most %.0f", c.machine, c.ranks, allocs, c.max)
		}
		t.Logf("%s@%d: %.0f allocations", c.machine, c.ranks, allocs)
	}
}

// TestLookupsDoNotAllocate pins the four lookups every comm projection
// makes, on a DefaultSizes table, whole and with holes in its grid.
func TestLookupsDoNotAllocate(t *testing.T) {
	whole, err := Run(arch.MustGet(arch.Hydra), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Run(arch.MustGet(arch.Hydra), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cutAbove(cut, 64*units.KiB)
	for _, tab := range []*Table{whole, cut} {
		lookups := map[string]func(){
			"Time":        func() { _, _ = tab.Time(mpi.RoutineSendrecv, 100*units.KiB) },
			"TransferNB":  func() { _ = tab.TransferNB(100*units.KiB, 2, 3) },
			"CoverageGap": func() { _ = tab.CoverageGap(mpi.RoutineSendrecv, 100*units.KiB) },
			"NBGap":       func() { _ = tab.NBGap(100 * units.KiB) },
		}
		for name, f := range lookups {
			if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
				t.Errorf("%s made %.0f allocations, want 0", name, allocs)
			}
		}
	}
}

// cutAbove deletes t's samples above max in place and keeps its declared
// size grid: the shape of a sweep that was cut short.
func cutAbove(t *Table, max units.Bytes) {
	ms := []map[units.Bytes]units.Seconds{t.NBIntra.InFlight, t.NBInter.InFlight}
	for _, m := range t.PerOp {
		ms = append(ms, m)
	}
	for _, m := range ms {
		for s := range m {
			if s > max {
				delete(m, s)
			}
		}
	}
}

// restrict is t less every benchmark sel leaves out: what a suite
// selecting sel builds where the full suite builds t.
func restrict(t *Table, sel benchmark) *Table {
	cp := *t
	cp.PerOp = map[mpi.Routine]map[units.Bytes]units.Seconds{}
	for rt, m := range t.PerOp {
		b := pricedBy(rt)
		if rt == PingPing {
			b = pingPing
		}
		if sel&b != 0 {
			cp.PerOp[rt] = m
		}
	}
	if sel&multiSendrecv == 0 {
		cp.NBIntra = NBFit{InFlight: map[units.Bytes]units.Seconds{}}
		cp.NBInter = NBFit{InFlight: map[units.Bytes]units.Seconds{}}
	}
	return &cp
}

// nasSelection is what a suite for nas.Routines() measures.
const nasSelection = multiSendrecv | bcast | reduce

// nasDemand is what a gather's suites are asked for: NAS-MZ's routines at
// the sizes its messages span.
func nasDemand() Demand {
	lo, hi := nas.MessageSpan()
	return Demand{Routines: nas.Routines(), MinBytes: lo, MaxBytes: hi}
}

// outside deletes, in place, t's simulated cells at the sizes a suite with
// span [lo, hi] (hi 0 for none) does not simulate: every size below the
// largest grid size ≤ lo and above the smallest ≥ hi, except the grid's
// last. The closed-form cells stay.
func outside(t *Table, lo, hi units.Bytes) {
	if hi == 0 {
		return
	}
	grid := t.Sizes
	from, to := grid[0], grid[len(grid)-1]
	for _, s := range grid {
		if s <= lo {
			from = s
		}
	}
	if i := slices.IndexFunc(grid, func(s units.Bytes) bool { return s >= hi }); i >= 0 {
		to = grid[i]
	}
	ms := []map[units.Bytes]units.Seconds{t.NBIntra.InFlight, t.NBInter.InFlight}
	for _, rt := range []mpi.Routine{mpi.RoutineSend, mpi.RoutineRecv, mpi.RoutineSendrecv, PingPing} {
		if m := t.PerOp[rt]; m != nil {
			ms = append(ms, m)
		}
	}
	for _, m := range ms {
		for s := range m {
			if (s < from || s > to) && s != grid[len(grid)-1] {
				delete(m, s)
			}
		}
	}
}

// FuzzGroupedTable holds a suite's tables to the whole-world reference on
// any machine, any two rank counts built in either order by one suite, any
// selection of benchmarks and any span of sizes, on a grid with eager and
// rendezvous sizes on every machine: each table must be the full
// fresh-world table less the benchmarks the suite does not select and the
// simulated cells outside its span. The seeds are the shapes grouping has
// to get right — one node, full nodes, a partial last node with an odd
// rank sitting out, groups of two hop shapes, one group chained across
// every node — each built twice (the second time from the suite's memory
// alone), pairs of counts whose groups share shapes, and NAS-MZ's span, a
// span between grid sizes and one that leaves the last size apart.
func FuzzGroupedTable(f *testing.F) {
	machines := []string{arch.Hydra, arch.Power6, arch.BlueGene, arch.Westmere}
	for _, s := range []struct {
		machine uint8
		ranks   uint8
	}{
		// One node; full nodes.
		{0, 16}, {0, 64}, {1, 128},
		// A partial last node, an odd rank out.
		{2, 13}, {0, 17}, {3, 25},
		// Two hop shapes; one chained group.
		{2, 48}, {2, 96}, {3, 128},
	} {
		f.Add(s.machine, s.ranks, s.ranks, uint16(0), uint32(0), uint32(0))
	}
	// Counts sharing shapes, largest first as a gather builds them and
	// smallest first, with every benchmark and with a NAS-MZ selection
	// over a span.
	lo, hi := nas.MessageSpan()
	for _, s := range []struct {
		machine       uint8
		first, second uint8
		lo, hi        uint32
	}{{0, 32, 128, uint32(lo), uint32(hi)}, {1, 64, 128, 2000, 20000}, {2, 16, 64, 1024, 1024}, {3, 13, 48, 8, 1000}} {
		f.Add(s.machine, s.first, s.second, uint16(allBenchmarks), s.lo, s.hi)
		f.Add(s.machine, s.second, s.first, uint16(nasSelection), s.lo, s.hi)
	}
	sizes := []units.Bytes{8, 1 * units.KiB, 16 * units.KiB, 64 * units.KiB}
	f.Fuzz(func(t *testing.T, machine, first, second uint8, mask uint16, lo, hi uint32) {
		m := arch.MustGet(machines[int(machine)%len(machines)])
		sel := benchmark(mask) & allBenchmarks
		if sel == 0 {
			sel = allBenchmarks
		}
		lo, hi = min(lo, hi), max(lo, hi)
		s := &Suite{m: m, sel: sel, lo: units.Bytes(lo), hi: units.Bytes(hi)}
		for _, ranks := range []uint8{first, second} {
			n := int(ranks)
			if n < 2 || n > 128 {
				n = 2 + n%127
			}
			got, err := s.Table(n, sizes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(m, n, sizes, measureFresh(m, n))
			if err != nil {
				t.Fatal(err)
			}
			want = restrict(want, sel)
			outside(want, units.Bytes(lo), units.Bytes(hi))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d (counts %d then %d, selection %#x, span %d–%d B): suite table differs from the whole-world reference", m.Name, n, first, second, sel, lo, hi)
			}
		}
	})
}

// TestSuiteTablesConcurrently builds one suite's tables from several
// goroutines at once (run it under -race): each must equal the same
// selection's one-table suite.
func TestSuiteTablesConcurrently(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	counts := []int{64, 48, 32, 16}
	s := NewSuite(m, nasDemand())
	got := make([]*Table, len(counts))
	errs := make([]error, len(counts))
	var wg sync.WaitGroup
	for i, ranks := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Table(ranks, smallSizes())
		}()
	}
	wg.Wait()
	for i, ranks := range counts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := NewSuite(m, nasDemand()).Table(ranks, smallSizes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("hydra@%d: a table built beside others differs from a one-table suite's", ranks)
		}
	}
}

// servedCounts are the counts a BT-MZ.C gather builds, in its start order.
var servedCounts = []int{128, 64, 32, 16}

// TestSuiteSimulationsPerGather pins what one gather's suite simulates for
// NAS-MZ on each machine: its tables at servedCounts, built in that order
// by one suite. Full tables, one suite each as Run builds them, simulate
// full worlds and groups; the served suites measure only multi-Sendrecv and
// PingPing (Bcast and Reduce are closed forms, not simulations), only at
// the 7 of DefaultSizes' 19 sizes that bracket NAS-MZ's messages, and a
// group whose shape another table has measured is not simulated again.
// Over the whole grid the same selection simulates 152, 228, 532 and 304.
func TestSuiteSimulationsPerGather(t *testing.T) {
	for _, c := range []struct {
		machine    string
		full, want int64
	}{{arch.Hydra, 703, 56}, {arch.Power6, 646, 84}, {arch.Westmere, 1064, 196}, {arch.BlueGene, 760, 112}} {
		m := arch.MustGet(c.machine)
		var full int64
		served := NewSuite(m, nasDemand())
		for _, ranks := range servedCounts {
			one := NewSuite(m, Demand{})
			if _, err := one.Table(ranks, nil); err != nil {
				t.Fatal(err)
			}
			full += one.sims.Load()
			if _, err := served.Table(ranks, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := served.sims.Load(); full != c.full || got != c.want {
			t.Errorf("%s: %d simulations for full tables and %d served, want %d and %d", c.machine, full, got, c.full, c.want)
		}
	}
}

// TestServedSpanMatchesFullGrid holds a gather's tables, simulated only
// over NAS-MZ's span, to the same suite's tables over the whole grid, on
// every machine at servedCounts: every cell the span table simulates is
// the full grid's, bit for bit, and exactly the 7 sizes from 16 KiB to
// 1 MiB are simulated; the Eq. 1 overheads are equal; every Eq. 1 lookup
// anywhere in the span — at both ends, at each NAS-MZ app's smallest and
// largest face and at sizes between — reads the same bits; the Bcast and
// Reduce lookups NAS-MZ makes (8–40 B) are equal; and NBGap is false in the
// span and true below it.
func TestServedSpanMatchesFullGrid(t *testing.T) {
	lo, hi := nas.MessageSpan()
	// Each NAS-MZ app's smallest and largest face: BT-MZ, SP-MZ and LU-MZ,
	// classes C and D.
	faces := []units.Bytes{20160, 129920, 43520, 269280, 44800, 67200, 103360, 138720, 179200, 268800, 826880, 1109760}
	for s := float64(lo); s <= float64(hi); s *= 1.07 {
		faces = append(faces, units.Bytes(s))
	}
	var simulated []units.Bytes
	for _, s := range DefaultSizes() {
		if s >= 16*units.KiB {
			simulated = append(simulated, s)
		}
	}
	for _, machine := range []string{arch.Hydra, arch.Power6, arch.Westmere, arch.BlueGene} {
		m := arch.MustGet(machine)
		span, grid := NewSuite(m, nasDemand()), NewSuite(m, Demand{Routines: nas.Routines()})
		for _, ranks := range servedCounts {
			got, err := span.Table(ranks, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := grid.Table(ranks, nil)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s@%d", machine, ranks)
			if !slices.Equal(got.Sizes, want.Sizes) || !reflect.DeepEqual(got.PerOp, want.PerOp) {
				t.Errorf("%s: sizes or closed-form cells differ from the full grid's", name)
			}
			for _, fit := range []struct {
				name      string
				got, want NBFit
			}{{"intra", got.NBIntra, want.NBIntra}, {"inter", got.NBInter, want.NBInter}} {
				if fit.got.Overhead != fit.want.Overhead {
					t.Errorf("%s: %s overhead %v, full grid %v", name, fit.name, fit.got.Overhead, fit.want.Overhead)
				}
				if keys := slices.Sorted(maps.Keys(fit.got.InFlight)); !slices.Equal(keys, simulated) {
					t.Errorf("%s: %s fit simulated at %v, want %v", name, fit.name, keys, simulated)
				}
				for size, v := range fit.got.InFlight {
					if v != fit.want.InFlight[size] {
						t.Errorf("%s: %s in-flight at %d B is %v, full grid %v", name, fit.name, size, v, fit.want.InFlight[size])
					}
				}
			}
			for _, size := range faces {
				if got.TransferNB(size, 1.5, 2.5) != want.TransferNB(size, 1.5, 2.5) ||
					got.InFlightIntra(size) != want.InFlightIntra(size) || got.InFlightInter(size) != want.InFlightInter(size) {
					t.Errorf("%s: Eq. 1 lookup at %d B differs from the full grid's", name, size)
				}
				if got.NBGap(size) {
					t.Errorf("%s: NBGap at %d B, inside the span", name, size)
				}
			}
			for _, rt := range []mpi.Routine{mpi.RoutineBcast, mpi.RoutineReduce} {
				for _, size := range []units.Bytes{8, 24, 40} {
					g, errG := got.Time(rt, size)
					w, errW := want.Time(rt, size)
					if errG != nil || errW != nil {
						t.Fatal(errG, errW)
					}
					if g != w {
						t.Errorf("%s: %s at %d B is %v, full grid %v", name, rt, size, g, w)
					}
				}
			}
			for _, size := range []units.Bytes{4, 1000, 8 * units.KiB, 12 * units.KiB} {
				if !got.NBGap(size) {
					t.Errorf("%s: no NBGap at %d B, below the span", name, size)
				}
			}
		}
	}
}

// BenchmarkRun is one whole default-grid table at 64 ranks, the size the
// pipeline characterises most: on hydra (four 16-way nodes, the inter fit
// runs) and on power6-575 (two 32-way nodes). ns/op is a table's simulator
// time; B/op and allocs/op what it costs the heap.
func BenchmarkRun(b *testing.B) {
	for _, machine := range []string{arch.Hydra, arch.Power6} {
		b.Run(machine, func(b *testing.B) {
			m := arch.MustGet(machine)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(m, 64, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuite is one gather's IMB tables for a NAS-MZ request on each
// machine: the served tables at servedCounts through one suite.
// simulations/op counts the worlds and groups it ran.
func BenchmarkSuite(b *testing.B) {
	for _, machine := range []string{arch.Hydra, arch.Power6, arch.Westmere, arch.BlueGene} {
		b.Run(machine, func(b *testing.B) {
			m := arch.MustGet(machine)
			b.ReportAllocs()
			var sims int64
			for i := 0; i < b.N; i++ {
				s := NewSuite(m, nasDemand())
				for _, ranks := range servedCounts {
					if _, err := s.Table(ranks, nil); err != nil {
						b.Fatal(err)
					}
				}
				sims += s.sims.Load()
			}
			b.ReportMetric(float64(sims)/float64(b.N), "simulations/op")
		})
	}
}

// TestMultiSendrecvSlopeLaw holds the served multi-Sendrecv slopes to the
// closed form they follow wherever nothing contends: with k =
// min(ranks, CoresPerNode) pairs sharing a node's bus (intra) or NIC
// (inter), a message in flight costs max(2·LibOverhead, k·S/B) — the
// posting of an Isend and an Irecv, or its share of the bandwidth B
// (IntraBandwidthGBs intra, BandwidthGBs inter). Each machine's bound sits
// just above the worst relative error its tables show at 2, 16, 32, 64 and
// 128 ranks. westmere-x5670's inter slopes are pinned as not following the
// law: NIC contention emerges there (DESIGN §12). The law is a check on the
// simulator, not a table the projection reads.
func TestMultiSendrecvSlopeLaw(t *testing.T) {
	for _, c := range []struct {
		machine      string
		intra, inter float64 // the worst relative error allowed
		contended    bool    // the worst inter error must exceed inter instead
	}{
		{arch.Hydra, 1e-14, 1e-3, false},
		{arch.Power6, 3e-14, 3e-14, false},
		{arch.Westmere, 1e-14, 0.5, true},
		{arch.BlueGene, 4e-3, 3e-15, false},
	} {
		m := arch.MustGet(c.machine)
		s := NewSuite(m, Demand{Routines: nas.Routines()})
		var worstIntra, worstInter float64
		for _, ranks := range []int{128, 64, 32, 16, 2} {
			tab, err := s.Table(ranks, nil)
			if err != nil {
				t.Fatal(err)
			}
			k := float64(min(ranks, m.CoresPerNode))
			law := func(size units.Bytes, gbs float64) units.Seconds {
				return max(2*m.Net.LibOverheadUS*1e-6, k*float64(size)/(gbs*1e9))
			}
			for _, size := range tab.Sizes {
				worstIntra = max(worstIntra, relErr(tab.NBIntra.InFlight[size], law(size, m.Net.IntraBandwidthGBs)))
				if m.NodesFor(ranks) > 1 {
					worstInter = max(worstInter, relErr(tab.NBInter.InFlight[size], law(size, m.Net.BandwidthGBs)))
				}
			}
		}
		t.Logf("%s: worst relative error intra %.2g, inter %.2g", m.Name, worstIntra, worstInter)
		if worstIntra > c.intra {
			t.Errorf("%s: intra slopes off the law by up to %.2g, want at most %.2g", m.Name, worstIntra, c.intra)
		}
		switch {
		case !c.contended && worstInter > c.inter:
			t.Errorf("%s: inter slopes off the law by up to %.2g, want at most %.2g", m.Name, worstInter, c.inter)
		case c.contended && worstInter <= c.inter:
			t.Errorf("%s: inter slopes off the law by at most %.2g, want contention to push them past %.2g", m.Name, worstInter, c.inter)
		}
	}
}

// relErr is |got-want|/want.
func relErr(got, want units.Seconds) float64 {
	return math.Abs(got-want) / want
}
