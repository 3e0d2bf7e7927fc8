package mpiprof_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/mpi"
	"repro/internal/mpiprof"
	"repro/internal/nas"
	"repro/internal/units"
)

// event is one observer callback: a compute advance when ev.Routine is
// empty, a routine completion otherwise.
type event struct {
	rank    int
	compute units.Seconds
	ev      mpi.RoutineEvent
}

// recorder is an mpi.Observer that keeps every callback, copying each
// event's peers out of the simulator's scratch.
type recorder struct {
	events []event
	peers  []int
}

func (r *recorder) OnCompute(rank int, dt units.Seconds) {
	r.events = append(r.events, event{rank: rank, compute: dt})
}

func (r *recorder) OnRoutine(rank int, ev mpi.RoutineEvent) {
	start := len(r.peers)
	r.peers = append(r.peers, ev.Peers...)
	ev.Peers = r.peers[start:len(r.peers):len(r.peers)]
	r.events = append(r.events, event{rank: rank, ev: ev})
}

func replay(events []event, o mpi.Observer) {
	for _, e := range events {
		if e.ev.Routine == "" {
			o.OnCompute(e.rank, e.compute)
		} else {
			o.OnRoutine(e.rank, e.ev)
		}
	}
}

// recordRun records the observer stream of one application run on Hydra.
func recordRun(tb testing.TB, cfg nas.Config) ([]event, units.Seconds) {
	tb.Helper()
	inst, err := nas.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var rec recorder
	makespan, err := inst.RunObserved(arch.MustGet(arch.Hydra), &rec)
	if err != nil {
		tb.Fatal(err)
	}
	return rec.events, makespan
}

var allRoutines = []mpi.Routine{
	mpi.RoutineIsend, mpi.RoutineIrecv, mpi.RoutineWaitall,
	mpi.RoutineSend, mpi.RoutineRecv, mpi.RoutineSendrecv,
	mpi.RoutineBcast, mpi.RoutineReduce, mpi.RoutineAllreduce,
	"MPI_Allgather", "MPI_Alltoall", "MPI_Barrier", // collectives only mpi's tests run
}

// pointToPoint reports whether rt's events carry peers.
func pointToPoint(rt mpi.Routine) bool { return mpi.ClassOf(rt) != mpi.ClassCollective }

// randomStream is n seeded events over a job of the given rank count:
// mixed routines, a few shared sizes and some one-off ones, random peers,
// and elapsed times spread over eleven decades so that any change in float
// summation order shows in the last bits.
func randomStream(seed uint64, ranks, n int) []event {
	rng := rand.New(rand.NewPCG(seed, uint64(ranks)))
	shared := []units.Bytes{0, 8, 64, 1024, 8 * units.KiB, 64 * units.KiB}
	elapsed := func() units.Seconds {
		if rng.IntN(16) == 0 {
			return 0
		}
		return rng.Float64() * math.Pow(10, float64(rng.IntN(11)-9))
	}
	var rec recorder
	for i := 0; i < n; i++ {
		rank := rng.IntN(ranks)
		if rng.IntN(5) == 0 {
			rec.OnCompute(rank, elapsed())
			continue
		}
		rt := allRoutines[rng.IntN(len(allRoutines))]
		size := shared[rng.IntN(len(shared))]
		if rng.IntN(8) == 0 {
			size = units.Bytes(rng.IntN(1 << 20))
		}
		ev := mpi.RoutineEvent{Routine: rt, Bytes: size, Count: 1 + rng.IntN(8), Elapsed: elapsed()}
		if pointToPoint(rt) {
			peers := make([]int, rng.IntN(ev.Count+1))
			for j := range peers {
				peers[j] = rng.IntN(ranks)
			}
			ev.Peers = peers
		}
		rec.OnRoutine(rank, ev)
	}
	return rec.events
}

// edgeStream reaches every edge of a dense offset histogram: each rank
// messages itself (offset 0), the rank ranks/2 ahead (the largest offset,
// reached from the other side on an odd ring) and its neighbours, under
// point-to-point routines at one shared and one per-rank size.
func edgeStream(ranks int) []event {
	var rec recorder
	for r := 0; r < ranks; r++ {
		peers := []int{r, (r + ranks/2) % ranks, (r + (ranks+1)/2) % ranks, (r + 1) % ranks, (r + ranks - 1) % ranks}
		for i, rt := range []mpi.Routine{mpi.RoutineIsend, mpi.RoutineWaitall, mpi.RoutineSendrecv} {
			size := units.Bytes(1024)
			if i == 1 {
				size = units.Bytes(8 * (r + 1))
			}
			rec.OnRoutine(r, mpi.RoutineEvent{Routine: rt, Bytes: size, Count: len(peers), Elapsed: 1e-6 * float64(r+i+1), Peers: peers})
		}
		rec.OnRoutine(r, mpi.RoutineEvent{Routine: mpi.RoutineAllreduce, Bytes: 8, Count: 1, Elapsed: 1e-5})
		rec.OnCompute(r, 1e-3)
	}
	return rec.events
}

// cursorStream is a stepped job whose (routine, size) keys outnumber the
// profiler's first index many times over, so the index grows while ranks
// are mid-step, and whose ranks' steps are interleaved event by event, as
// the simulator interleaves them. Each rank repeats its own sequence of
// point-to-point calls step after step and computes between steps, except
// that rank 0 starts every third step with an extra Allreduce, which its
// trace sometimes has and sometimes lacks, and that the last rank's
// sequence changes for good midway, at one position in the middle and in
// its order. It returns the stream and how many distinct keys it has.
func cursorStream(ranks int) ([]event, int) {
	const steps, calls = 8, 128
	p2p := []mpi.Routine{mpi.RoutineIsend, mpi.RoutineIrecv, mpi.RoutineWaitall, mpi.RoutineSend, mpi.RoutineRecv, mpi.RoutineSendrecv}
	keys := map[string]bool{}
	var rec recorder
	for step := 0; step < steps; step++ {
		for i := -1; i < calls; i++ {
			for r := 0; r < ranks; r++ {
				if i < 0 {
					if r == 0 && step%3 == 1 {
						rec.OnRoutine(r, mpi.RoutineEvent{Routine: mpi.RoutineAllreduce, Bytes: 8, Count: 1, Elapsed: 1e-5})
					}
					continue
				}
				at := i
				if r == ranks-1 && step >= steps/2 {
					at = calls - 1 - i // the changed rank runs its calls backwards...
					if i == calls/2 {
						at = 2 * calls // ...with one it never made before
					}
				}
				// Every fourth call's key is shared by all ranks, the
				// rest are the rank's own.
				rt, size := p2p[at%len(p2p)], units.Bytes(8*(1+at+r*3*calls))
				if at%4 == 0 {
					size = units.Bytes(8 * (1 + at))
				}
				keys[fmt.Sprint(rt, size)] = true
				peers := []int{(r + at) % ranks, (r + 1) % ranks}
				rec.OnRoutine(r, mpi.RoutineEvent{Routine: rt, Bytes: size, Count: len(peers), Elapsed: 1e-7 * float64(1+(step*calls+i+r)%13), Peers: peers})
			}
		}
		for r := 0; r < ranks; r++ {
			rec.OnCompute(r, 1e-3)
		}
	}
	return rec.events, len(keys)
}

// profileBoth feeds one stream to the profiler and to the reference.
func profileBoth(ranks int, events []event, makespan units.Seconds) (*mpiprof.Profile, *refProfile) {
	p, ref := mpiprof.New(ranks), newRef(ranks)
	replay(events, p)
	replay(events, ref)
	return p.Profile("app", "machine", makespan), ref.profile("app", "machine", makespan)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sortedOffsets is a reference histogram as ascending (offset, count) pairs.
func sortedOffsets(m map[int]int) []mpiprof.OffsetCount {
	var out []mpiprof.OffsetCount
	for off, n := range m {
		out = append(out, mpiprof.OffsetCount{Offset: off, Count: n})
	}
	slices.SortFunc(out, func(a, b mpiprof.OffsetCount) int { return a.Offset - b.Offset })
	return out
}

// matchReference returns the first way got differs from want, or "".
func matchReference(got *mpiprof.Profile, want *refProfile) string {
	if got.Ranks() != want.ranks() {
		return fmt.Sprintf("ranks %d, want %d", got.Ranks(), want.ranks())
	}
	for r := range want.Tasks {
		g, w := got.Tasks[r], want.Tasks[r]
		if g.Rank != w.Rank || !sameBits(g.Compute, w.Compute) || !sameBits(g.Comm, w.Comm) {
			return fmt.Sprintf("task %d = %+v, want rank %d compute %v comm %v", r, g, w.Rank, w.Compute, w.Comm)
		}
	}
	routines := want.routines()
	if !slices.Equal(got.Routines(), routines) {
		return fmt.Sprintf("routines %v, want %v", got.Routines(), routines)
	}
	for _, rt := range append(routines, mpi.Routine("MPI_Absent")) {
		g, w := got.RoutineAggregate(rt), want.routineAggregate(rt)
		if g == nil || g.Routine != rt || g.Calls != w.Calls || !sameBits(g.Elapsed, w.Elapsed) {
			return fmt.Sprintf("%s aggregate %+v, want calls %d elapsed %v", rt, g, w.Calls, w.Elapsed)
		}
		sizes := w.sortedSizes()
		if len(g.Sizes) != len(sizes) {
			return fmt.Sprintf("%s has %d sizes, want %d", rt, len(g.Sizes), len(sizes))
		}
		for i, b := range sizes {
			gs, ws := g.Sizes[i], w.Sizes[b]
			if gs.Bytes != b || gs.Calls != ws.Calls || gs.Messages != ws.Messages || !sameBits(gs.Elapsed, ws.Elapsed) {
				return fmt.Sprintf("%s size %d = %+v, want %+v", rt, i, gs, *ws)
			}
			if offs := sortedOffsets(ws.Offsets); !slices.Equal(gs.Offsets, offs) {
				return fmt.Sprintf("%s@%d offsets %v, want %v", rt, b, gs.Offsets, offs)
			}
		}
		if !sameBits(got.RoutineShare(rt), want.routineShare(rt)) {
			return fmt.Sprintf("%s share %v, want %v", rt, got.RoutineShare(rt), want.routineShare(rt))
		}
		for r, tp := range want.Tasks {
			var w units.Seconds
			if rp := tp.Routines[rt]; rp != nil {
				w = rp.Elapsed
			}
			if g := got.RankElapsed(r, rt); !sameBits(g, w) {
				return fmt.Sprintf("rank %d in %s: %v, want %v", r, rt, g, w)
			}
		}
	}
	gc, wc := got.ClassElapsed(), want.classElapsed()
	if len(gc) != len(wc) {
		return fmt.Sprintf("class elapsed %v, want %v", gc, wc)
	}
	for cls, w := range wc {
		if g, ok := gc[cls]; !ok || !sameBits(g, w) {
			return fmt.Sprintf("class %s elapsed %v, want %v", cls, g, w)
		}
	}
	if !sameBits(got.MeanCompute(), want.meanCompute()) || !sameBits(got.MeanComm(), want.meanComm()) {
		return fmt.Sprintf("means (%v, %v), want (%v, %v)", got.MeanCompute(), got.MeanComm(), want.meanCompute(), want.meanComm())
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("String differs:\n%s\nwant:\n%s", g, w)
	}
	return ""
}

// TestProfilerMatchesReference holds the job-wide profiler to the
// per-rank-map reference: equal counts and offsets, bit-equal floats and
// byte-equal text, on seeded random streams and on real application runs.
func TestProfilerMatchesReference(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 16, 17, 64, 127, 128} {
		for seed := uint64(1); seed <= 4; seed++ {
			events := randomStream(seed, ranks, 3000)
			got, want := profileBoth(ranks, events, 1)
			if msg := matchReference(got, want); msg != "" {
				t.Fatalf("random stream, seed %d, %d ranks: %s", seed, ranks, msg)
			}
		}
	}
	for _, ranks := range []int{1, 2, 3, 4, 17, 64, 127, 128} {
		got, want := profileBoth(ranks, edgeStream(ranks), 1)
		if msg := matchReference(got, want); msg != "" {
			t.Fatalf("edge stream, %d ranks: %s", ranks, msg)
		}
	}
	for _, ranks := range []int{3, 7, 17} {
		events, keys := cursorStream(ranks)
		if keys < 300 {
			t.Fatalf("cursor stream, %d ranks: %d keys, want at least 300", ranks, keys)
		}
		got, want := profileBoth(ranks, events, 1)
		if msg := matchReference(got, want); msg != "" {
			t.Fatalf("cursor stream, %d ranks: %s", ranks, msg)
		}
	}
	for _, b := range nas.Benchmarks() {
		for _, ranks := range []int{16, 64} {
			cfg := nas.Config{Bench: b, Class: nas.ClassC, Ranks: ranks}
			if _, err := nas.New(cfg); err != nil {
				continue // LU-MZ has 16 zones
			}
			events, makespan := recordRun(t, cfg)
			got, want := profileBoth(ranks, events, makespan)
			if msg := matchReference(got, want); msg != "" {
				t.Fatalf("%s on hydra: %s", cfg, msg)
			}
		}
	}
}

// FuzzProfilerMatchesReference mutates the event stream: the first byte
// picks the rank count, then each event is six bytes (routine or compute,
// rank, size, count and peer count, two for elapsed) followed, for
// point-to-point routines, by one byte per peer.
func FuzzProfilerMatchesReference(f *testing.F) {
	f.Add([]byte{15, 0, 1, 2, 3, 40, 9, 1, 2})
	f.Add([]byte{127, 2, 5, 3, 0x35, 200, 3, 1, 2, 3, 12, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("\x3f the quick brown fox jumps over the lazy dog 0123456789"))
	// A 1-rank job messaging itself: offset 0 is the whole histogram.
	f.Add([]byte{0, 0, 0, 5, 2<<3 | 1, 9, 3, 0, 0})
	// 17 ranks (odd): rank 3 waits on itself and on ranks 11 and 12, both
	// ranks/2 = 8 away; rank 16 sendrecvs with rank 7, 8 away across the wrap.
	f.Add([]byte{16, 2, 3, 7, 3<<3 | 2, 40, 5, 3, 11, 12, 5, 16, 9, 2<<3 | 1, 17, 6, 7, 0})
	// 64 ranks: peers exactly ranks/2 = 32 away, from below and from above.
	f.Add([]byte{63, 1, 0, 4, 1 << 3, 21, 4, 32, 0, 40, 4, 1 << 3, 22, 4, 8, 12, 5, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ranks := 1 + int(data[0])%128
		var rec recorder
		for b := data[1:]; len(b) >= 6; {
			kind, rank, size, shape := int(b[0])%(len(allRoutines)+1), int(b[1])%ranks, b[2], b[3]
			elapsed := units.Seconds(b[4]) * math.Pow(10, -float64(b[5]%12))
			b = b[6:]
			if kind == len(allRoutines) {
				rec.OnCompute(rank, elapsed)
				continue
			}
			rt := allRoutines[kind]
			ev := mpi.RoutineEvent{Routine: rt, Bytes: units.Bytes(size) << (size % 16), Count: 1 + int(shape%8), Elapsed: elapsed}
			if pointToPoint(rt) {
				n := min(int(shape>>3)%9, len(b))
				peers := make([]int, n)
				for i := range peers {
					peers[i] = int(b[i]) % ranks
				}
				ev.Peers, b = peers, b[n:]
			}
			rec.OnRoutine(rank, ev)
		}
		got, want := profileBoth(ranks, rec.events, 1)
		if msg := matchReference(got, want); msg != "" {
			t.Fatal(msg)
		}
	})
}

// profileSink keeps the benchmarked profile live.
var profileSink *mpiprof.Profile

// TestFirstSightingsAllocs pins the object count of
// BenchmarkProfilerFirstSightings: a fresh profiler fed a recorded
// BT-MZ.C@64 stream on Hydra and frozen makes 47 allocations, where a size
// map per routine made 67.
func TestFirstSightingsAllocs(t *testing.T) {
	cfg := nas.Config{Bench: nas.BT, Class: nas.ClassC, Ranks: 64}
	events, makespan := recordRun(t, cfg)
	allocs := testing.AllocsPerRun(3, func() {
		p := mpiprof.New(cfg.Ranks)
		replay(events, p)
		profileSink = p.Profile(cfg.String(), arch.Hydra, makespan)
	})
	if allocs > 47 {
		t.Errorf("profiling a recorded BT-MZ.C@64 stream made %.0f allocations, want at most 47", allocs)
	}
}

// BenchmarkProfilerFirstSightings is what a profile costs the heap: a
// fresh profiler per iteration fed a recorded BT-MZ.C@64 event stream on
// Hydra, then frozen.
func BenchmarkProfilerFirstSightings(b *testing.B) {
	cfg := nas.Config{Bench: nas.BT, Class: nas.ClassC, Ranks: 64}
	events, makespan := recordRun(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mpiprof.New(cfg.Ranks)
		replay(events, p)
		profileSink = p.Profile(cfg.String(), arch.Hydra, makespan)
	}
}
