package mpiprof

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/mpi"
	"repro/internal/units"
)

// runProfiled executes a small job with profiling and returns the profile.
func runProfiled(t *testing.T, ranks int, program func(r *mpi.Rank)) *Profile {
	t.Helper()
	w, err := mpi.NewWorld(arch.MustGet(arch.Hydra), ranks)
	if err != nil {
		t.Fatal(err)
	}
	p := New(ranks)
	w.SetObserver(p)
	ms, err := w.Run(program)
	if err != nil {
		t.Fatal(err)
	}
	return p.Profile("test-app", arch.Hydra, ms)
}

func ringProgram(r *mpi.Rank) {
	next := (r.ID() + 1) % r.Size()
	prev := (r.ID() + r.Size() - 1) % r.Size()
	for step := 0; step < 4; step++ {
		r.Compute(1e-3)
		s := r.Isend(next, 8*units.KiB, step)
		v := r.Irecv(prev, 8*units.KiB, step)
		r.Waitall(s, v)
	}
	r.Reduce(0, 64)
	r.Bcast(0, 8)
}

func TestProfileStructure(t *testing.T) {
	pf := runProfiled(t, 8, ringProgram)
	if pf.Ranks() != 8 {
		t.Fatalf("ranks = %d", pf.Ranks())
	}
	if pf.App != "test-app" || pf.Machine != arch.Hydra {
		t.Error("labels lost")
	}
	routines := pf.Routines()
	want := []mpi.Routine{
		mpi.RoutineBcast, mpi.RoutineReduce, // collectives sort first
		mpi.RoutineIrecv, mpi.RoutineIsend, mpi.RoutineWaitall,
	}
	if len(routines) != len(want) {
		t.Fatalf("routines = %v", routines)
	}
	for i := range want {
		if routines[i] != want[i] {
			t.Fatalf("routines = %v, want %v", routines, want)
		}
	}
}

func TestComputeCommSplit(t *testing.T) {
	pf := runProfiled(t, 8, ringProgram)
	// Each task computed exactly 4 ms.
	if math.Abs(pf.MeanCompute()-4e-3) > 1e-12 {
		t.Errorf("mean compute = %v, want 4ms", pf.MeanCompute())
	}
	if pf.MeanComm() <= 0 {
		t.Error("communication time missing")
	}
	cf := pf.CommFraction()
	if cf <= 0 || cf >= 1 {
		t.Errorf("comm fraction = %v", cf)
	}
	for _, tp := range pf.Tasks {
		if math.Abs(tp.Compute+tp.Comm-tp.Total()) > 1e-15 {
			t.Error("task total must be compute+comm")
		}
	}
}

func TestRoutineAggregate(t *testing.T) {
	pf := runProfiled(t, 8, ringProgram)
	isend := pf.RoutineAggregate(mpi.RoutineIsend)
	if isend.Calls != 8*4 {
		t.Errorf("Isend calls = %d, want 32", isend.Calls)
	}
	if len(isend.Sizes) != 1 {
		t.Fatalf("Isend sizes = %+v, want one", isend.Sizes)
	}
	if se := isend.Sizes[0]; se.Bytes != 8*units.KiB || se.Calls != 32 || se.Messages != 32 {
		t.Errorf("Isend size entry wrong: %+v", se)
	}
	wa := pf.RoutineAggregate(mpi.RoutineWaitall)
	if wa.Calls != 32 {
		t.Errorf("Waitall calls = %d", wa.Calls)
	}
	if got := wa.MeanMessagesPerCall(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Waitall x = %v, want 2 (one send + one recv per call)", got)
	}
	// Unknown routine aggregates to empty, not nil.
	if agg := pf.RoutineAggregate(mpi.RoutineAlltoall); agg.Calls != 0 {
		t.Error("absent routine must aggregate empty")
	}
}

func TestSortedSizes(t *testing.T) {
	pf := runProfiled(t, 4, func(r *mpi.Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		for _, size := range []units.Bytes{1024, 64, 512 * units.KiB} {
			s := r.Isend(next, size, int(size))
			v := r.Irecv(prev, size, int(size))
			r.Waitall(s, v)
		}
	})
	sizes := pf.RoutineAggregate(mpi.RoutineIsend).Sizes
	if len(sizes) != 3 || sizes[0].Bytes != 64 || sizes[1].Bytes != 1024 || sizes[2].Bytes != 512*units.KiB {
		t.Errorf("sizes must ascend: %+v", sizes)
	}
}

func TestClassElapsed(t *testing.T) {
	pf := runProfiled(t, 8, ringProgram)
	ce := pf.ClassElapsed()
	if ce[mpi.ClassP2PNB] <= 0 {
		t.Error("P2P-NB time missing")
	}
	if ce[mpi.ClassCollective] <= 0 {
		t.Error("collective time missing")
	}
	if ce[mpi.ClassP2PB] != 0 {
		t.Error("no blocking p2p was issued")
	}
	var total units.Seconds
	for _, v := range ce {
		total += v
	}
	var comm units.Seconds
	for _, tp := range pf.Tasks {
		comm += tp.Comm
	}
	if math.Abs(total-comm) > 1e-12 {
		t.Errorf("class sums %v != comm total %v", total, comm)
	}
}

func TestRoutineShareSumsBelowTotal(t *testing.T) {
	pf := runProfiled(t, 8, ringProgram)
	var sum float64
	for _, rt := range pf.Routines() {
		share := pf.RoutineShare(rt)
		if share < 0 || share > 100 {
			t.Errorf("%s share = %v", rt, share)
		}
		sum += share
	}
	commPct := 100 * pf.CommFraction()
	if math.Abs(sum-commPct) > 0.1 {
		t.Errorf("routine shares sum to %v, comm%% is %v", sum, commPct)
	}
}

func TestStringRendersSections(t *testing.T) {
	pf := runProfiled(t, 4, ringProgram)
	s := pf.String()
	for _, frag := range []string{"test-app", "compute", "communication", "MPI_Waitall", "8KiB", "calls"} {
		if !strings.Contains(s, frag) {
			t.Errorf("profile text missing %q:\n%s", frag, s)
		}
	}
}

func TestWaitTimeVisibleUnderImbalance(t *testing.T) {
	// Rank 1 computes longer; rank 0's Waitall elapsed must absorb the
	// imbalance — this is the WaitTime the paper models.
	pf := runProfiled(t, 2, func(r *mpi.Rank) {
		if r.ID() == 1 {
			r.Compute(0.25)
		}
		s := r.Isend(1-r.ID(), 256, 0)
		v := r.Irecv(1-r.ID(), 256, 0)
		r.Waitall(s, v)
	})
	if wa0 := pf.RankElapsed(0, mpi.RoutineWaitall); wa0 < 0.2 {
		t.Fatalf("rank 0 Waitall should contain ~0.25s of wait, got %v", wa0)
	}
	if wa1 := pf.RankElapsed(1, mpi.RoutineWaitall); wa1 > 0.01 {
		t.Errorf("rank 1 (the late one) should barely wait, got %v", wa1)
	}
	if pf.RankElapsed(0, mpi.RoutineAlltoall) != 0 {
		t.Error("an absent routine must read zero")
	}
}

// TestProfileAllocatesPerKey pins "per key, not per rank": the same
// routine × size pattern profiled at 16 and at 128 ranks allocates within
// a small constant of each other.
func TestProfileAllocatesPerKey(t *testing.T) {
	sizes := []units.Bytes{64, 1024, 8 * units.KiB, 64 * units.KiB}
	allocs := func(ranks int) float64 {
		return testing.AllocsPerRun(10, func() {
			p := New(ranks)
			var peers [2]int
			for r := 0; r < ranks; r++ {
				peers[0], peers[1] = (r+1)%ranks, (r+ranks-1)%ranks
				for _, size := range sizes {
					p.OnRoutine(r, mpi.RoutineEvent{Routine: mpi.RoutineIsend, Bytes: size, Count: 1, Elapsed: 1e-6, Peers: peers[:1]})
					p.OnRoutine(r, mpi.RoutineEvent{Routine: mpi.RoutineIrecv, Bytes: size, Count: 1, Elapsed: 1e-6, Peers: peers[1:]})
					p.OnRoutine(r, mpi.RoutineEvent{Routine: mpi.RoutineWaitall, Bytes: size, Count: 2, Elapsed: 1e-4, Peers: peers[:]})
				}
				p.OnRoutine(r, mpi.RoutineEvent{Routine: mpi.RoutineAllreduce, Bytes: 8, Count: 1, Elapsed: 1e-5})
				p.OnCompute(r, 1e-3)
			}
			p.Profile("shape", arch.Hydra, 1)
		})
	}
	a16, a128 := allocs(16), allocs(128)
	if a128 > a16+2 {
		t.Errorf("profiling allocates with ranks: %v objects at 16 ranks, %v at 128", a16, a128)
	}
}

// BenchmarkProfilerHostCost is the host-side cost of one steady-state
// event: no first sighting, so it must not allocate.
func BenchmarkProfilerHostCost(b *testing.B) {
	p := New(16)
	ev := mpi.RoutineEvent{Routine: mpi.RoutineWaitall, Bytes: 64 * units.KiB,
		Count: 8, Elapsed: 1e-3, Peers: []int{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnRoutine(i%16, ev)
		p.OnCompute(i%16, 1e-3)
	}
}
