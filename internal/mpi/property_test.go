package mpi

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/rng"
	"repro/internal/units"
)

// Simulator-invariant property tests: seeded random SPMD programs over
// every routine the simulator offers, checked for message conservation,
// monotone clocks, loud deadlocks and an event order that depends on
// nothing but the seed — the safety net under any change to internal/des.

type opKind int

const (
	opCompute opKind = iota // every rank burns its own dt
	opRing                  // Sendrecv around a ring with a random shift
	opPair                  // blocking Send/Recv over a random pairing
	opNB                    // Irecv + Isend over random edges, one Waitall
	opColl                  // one collective
	numOpKinds
)

// edge is one planned message.
type edge struct {
	src, dst int
	size     units.Bytes
}

// op is one SPMD step; every rank executes every op in plan order.
type op struct {
	kind    opKind
	tag     int
	size    units.Bytes
	dt      []units.Seconds // opCompute: per rank
	shift   int             // opRing
	partner []int           // opPair: partner[rank], -1 sits the step out
	edges   []edge          // opNB
	coll    Routine         // opColl
	// stray, when ≥ 0, is a rank that posts a Recv nobody answers before
	// doing anything else in this step.
	stray int
}

// propSizes straddles every machine's eager→rendezvous threshold.
var propSizes = []units.Bytes{8, 512, 4 * units.KiB, 64 * units.KiB, units.MiB}

var propMachines = []string{arch.Hydra, arch.Power6, arch.BlueGene, arch.Westmere}

var propColls = []Routine{
	RoutineBcast, RoutineReduce, RoutineAllreduce,
	RoutineAllgather, RoutineAlltoall, RoutineBarrier,
}

// program is a generated job: where it runs, its steps, and every
// point-to-point message those steps must move.
type program struct {
	machine string
	ranks   int
	plan    []op
	msgs    []edge
}

// genProgram derives a deadlock-free random program from seed.
func genProgram(seed int) *program {
	src := rng.New(fmt.Sprintf("mpi-property-%d", seed))
	pg := &program{
		machine: propMachines[src.Intn(len(propMachines))],
		ranks:   2 + src.Intn(15),
	}
	n := pg.ranks
	steps := 8 + src.Intn(17)
	for s := 0; s < steps; s++ {
		o := op{kind: opKind(src.Intn(int(numOpKinds))), tag: s, stray: -1,
			size: propSizes[src.Intn(len(propSizes))]}
		switch o.kind {
		case opCompute:
			o.dt = make([]units.Seconds, n)
			for i := range o.dt {
				// Coarse steps make equal wake times — the tie-break
				// the kernel must keep stable — common.
				o.dt[i] = units.Seconds(src.Intn(4)) * 1e-5
			}
		case opRing:
			o.shift = 1 + src.Intn(n-1)
			for i := 0; i < n; i++ {
				pg.msgs = append(pg.msgs, edge{i, (i + o.shift) % n, o.size})
			}
		case opPair:
			o.partner = make([]int, n)
			perm := src.Perm(n)
			for i := range o.partner {
				o.partner[i] = -1
			}
			for i := 0; i+1 < n; i += 2 {
				a, b := perm[i], perm[i+1]
				o.partner[a], o.partner[b] = b, a
				pg.msgs = append(pg.msgs, edge{a, b, o.size}, edge{b, a, o.size})
			}
		case opNB:
			for e, m := 0, 1+src.Intn(2*n); e < m; e++ {
				a := src.Intn(n)
				b := (a + 1 + src.Intn(n-1)) % n
				o.edges = append(o.edges, edge{a, b, propSizes[src.Intn(len(propSizes))]})
			}
			pg.msgs = append(pg.msgs, o.edges...)
		case opColl:
			o.coll = propColls[src.Intn(len(propColls))]
		}
		pg.plan = append(pg.plan, o)
	}
	return pg
}

// exec runs one step on one rank.
func (o *op) exec(r *Rank) {
	id, n := r.ID(), r.Size()
	if o.stray == id {
		r.Recv((id+1)%n, 64, 1<<20)
	}
	switch o.kind {
	case opCompute:
		r.Compute(o.dt[id])
	case opRing:
		r.Sendrecv((id+o.shift)%n, o.size, (id-o.shift+n)%n, o.size, o.tag)
	case opPair:
		switch p := o.partner[id]; {
		case p < 0:
		case id < p:
			r.Send(p, o.size, o.tag)
			r.Recv(p, o.size, o.tag)
		default:
			r.Recv(p, o.size, o.tag)
			r.Send(p, o.size, o.tag)
		}
	case opNB:
		var reqs []*Request
		for _, e := range o.edges {
			if e.dst == id {
				reqs = append(reqs, r.Irecv(e.src, e.size, o.tag))
			}
		}
		for _, e := range o.edges {
			if e.src == id {
				reqs = append(reqs, r.Isend(e.dst, e.size, o.tag))
			}
		}
		r.Waitall(reqs...)
	case opColl:
		switch o.coll {
		case RoutineBcast:
			r.Bcast(o.tag%n, o.size)
		case RoutineReduce:
			r.Reduce(o.tag%n, o.size)
		case RoutineAllreduce:
			r.Allreduce(o.size)
		case RoutineAllgather:
			r.Allgather(o.size)
		case RoutineAlltoall:
			r.Alltoall(o.size)
		default:
			r.Barrier()
		}
	}
}

// logEntry is one observer callback, stamped with the kernel clock.
type logEntry struct {
	t       units.Seconds
	rank    int
	routine Routine
	bytes   units.Bytes
	peers   []int
	count   int
	elapsed units.Seconds
}

// logObserver records the full observer stream in delivery order. The
// kernel runs one process at a time, so no lock is needed.
type logObserver struct {
	w   *World
	log []logEntry
}

func (o *logObserver) OnCompute(rank int, dt units.Seconds) {
	o.log = append(o.log, logEntry{t: o.w.kernel.Now(), rank: rank, routine: "compute"})
}

func (o *logObserver) OnRoutine(rank int, ev RoutineEvent) {
	o.log = append(o.log, logEntry{t: o.w.kernel.Now(), rank: rank, routine: ev.Routine,
		bytes: ev.Bytes, peers: append([]int(nil), ev.Peers...), count: ev.Count, elapsed: ev.Elapsed})
}

// digest is the SHA-256 of the (time, rank, routine, bytes) stream, times
// as exact float bits.
func (o *logObserver) digest() string {
	h := sha256.New()
	for _, e := range o.log {
		fmt.Fprintf(h, "%016x %d %s %d\n", math.Float64bits(e.t), e.rank, e.routine, e.bytes)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// run simulates the program on a fresh world and returns that world, the
// log and the outcome.
func (pg *program) run(t *testing.T) (*World, *logObserver, units.Seconds, error) {
	t.Helper()
	w := world(t, pg.machine, pg.ranks)
	obs, makespan, err := pg.runOn(w)
	return w, obs, makespan, err
}

// runOn simulates the program on w, which must be fresh or reset.
func (pg *program) runOn(w *World) (*logObserver, units.Seconds, error) {
	obs := &logObserver{w: w}
	w.SetObserver(obs)
	makespan, err := w.Run(func(r *Rank) {
		for i := range pg.plan {
			pg.plan[i].exec(r)
		}
	})
	return obs, makespan, err
}

const propSeeds = 60

func TestRandomProgramsConserveMessagesAndTime(t *testing.T) {
	for seed := 1; seed <= propSeeds; seed++ {
		pg := genProgram(seed)
		w, obs, makespan, err := pg.run(t)
		if err != nil {
			t.Fatalf("seed %d (%s, %d ranks): %v", seed, pg.machine, pg.ranks, err)
		}

		// Every planned message was sent once and received once.
		planned, sent, recvd := map[edge]int{}, map[edge]int{}, map[edge]int{}
		for _, m := range pg.msgs {
			planned[m]++
		}
		for _, e := range obs.log {
			switch e.routine {
			case RoutineIsend, RoutineSend:
				sent[edge{e.rank, e.peers[0], e.bytes}]++
			case RoutineIrecv, RoutineRecv:
				recvd[edge{e.peers[0], e.rank, e.bytes}]++
			case RoutineSendrecv:
				sent[edge{e.rank, e.peers[0], e.bytes}]++
				recvd[edge{e.peers[1], e.rank, e.bytes}]++
			}
		}
		for _, side := range []struct {
			name string
			got  map[edge]int
		}{{"sent", sent}, {"received", recvd}} {
			if len(side.got) != len(planned) {
				t.Errorf("seed %d: %d distinct messages %s, %d planned", seed, len(side.got), side.name, len(planned))
			}
			for m, want := range planned {
				if side.got[m] != want {
					t.Errorf("seed %d: message %+v %s %d times, planned %d", seed, m, side.name, side.got[m], want)
				}
			}
		}
		// ... and nothing is left half-matched inside the world.
		if sends, recvs := w.pendingCounts(); sends != 0 || recvs != 0 || w.liveColls() != 0 {
			t.Errorf("seed %d: %d sends, %d recvs, %d collectives left pending",
				seed, sends, recvs, w.liveColls())
		}

		// Clocks never run backwards, per rank or globally, and the
		// makespan is the last thing any rank saw.
		last := make([]units.Seconds, pg.ranks)
		var global units.Seconds
		for i, e := range obs.log {
			if e.t < last[e.rank] {
				t.Fatalf("seed %d: rank %d clock ran backwards at event %d: %v < %v", seed, e.rank, i, e.t, last[e.rank])
			}
			if e.t < global {
				t.Fatalf("seed %d: observer stream out of time order at event %d: %v < %v", seed, i, e.t, global)
			}
			last[e.rank], global = e.t, e.t
		}
		if makespan < global {
			t.Errorf("seed %d: makespan %v before last event %v", seed, makespan, global)
		}
	}
}

func TestRandomProgramsUnmatchedRecvNamesStuckRank(t *testing.T) {
	for seed := 1; seed <= propSeeds; seed++ {
		pg, rank := genProgram(seed).strayed(seed)
		_, _, _, err := pg.run(t)
		if err == nil {
			t.Fatalf("seed %d: unmatched Recv on rank %d went unnoticed", seed, rank)
		}
		if msg := err.Error(); !strings.Contains(msg, "deadlock") ||
			!strings.Contains(msg, fmt.Sprintf("  rank%d: waiting on signal:recv#", rank)) {
			t.Errorf("seed %d: deadlock report must name rank %d and its recv:\n%v", seed, rank, err)
		}
	}
}

// strayed returns the program with an unanswered Recv planted in it, and
// the rank that posts it.
func (pg *program) strayed(seed int) (*program, int) {
	pick := rng.New(fmt.Sprintf("mpi-property-stray-%d", seed))
	step, rank := pick.Intn(len(pg.plan)), pick.Intn(pg.ranks)
	cp := *pg
	cp.plan = append([]op(nil), pg.plan...)
	cp.plan[step].stray = rank
	return &cp, rank
}

// TestRandomProgramsSameOnResetWorld runs the programs back to back on one
// reused world per rank count and holds each to what a fresh world gives:
// the same makespan and the same observer log, whether the program before
// it on that world ended cleanly or deadlocked — and a deadlock on the
// reused world reads exactly as on a fresh one.
func TestRandomProgramsSameOnResetWorld(t *testing.T) {
	reused := map[int]*World{}
	for seed := 1; seed <= propSeeds; seed++ {
		pg := genProgram(seed)
		w := reused[pg.ranks]
		if w == nil {
			w = world(t, pg.machine, pg.ranks)
			reused[pg.ranks] = w
		}
		pg.machine = w.Machine.Name // a world keeps its machine; the plan does not care

		_, fresh, want, err := pg.run(t)
		if err != nil {
			t.Fatalf("seed %d (%s, %d ranks): %v", seed, pg.machine, pg.ranks, err)
		}
		w.Reset()
		obs, got, err := pg.runOn(w)
		if err != nil {
			t.Fatalf("seed %d on the reused world: %v", seed, err)
		}
		if got != want || obs.digest() != fresh.digest() {
			t.Errorf("seed %d: reused world gave makespan %v, log %s; fresh world %v, %s",
				seed, got, obs.digest(), want, fresh.digest())
		}

		// Every other seed leaves a deadlock behind for the next program.
		if seed%2 == 0 {
			continue
		}
		bad, _ := pg.strayed(seed)
		_, _, _, wantErr := bad.run(t)
		w.Reset()
		_, _, gotErr := bad.runOn(w)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("seed %d: deadlock on the reused world reads\n%v\non a fresh world\n%v", seed, gotErr, wantErr)
		}
	}
}

func TestRandomProgramsOrderIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := 1; seed <= propSeeds; seed += 3 {
		pg := genProgram(seed)
		var first string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			_, obs, _, err := pg.run(t)
			if err != nil {
				t.Fatalf("seed %d at GOMAXPROCS %d: %v", seed, procs, err)
			}
			if got := obs.digest(); first == "" {
				first = got
			} else if got != first {
				t.Errorf("seed %d: observer log at GOMAXPROCS %d differs from GOMAXPROCS 1", seed, procs)
			}
		}
	}
}

// TestRandomProgramsOrderPinned holds the observer stream of a few seeds to
// digests recorded on the goroutine-and-channel kernel (the commit before
// internal/des moved to coroutines): a kernel change that keeps totals but
// reorders same-time events fails here.
func TestRandomProgramsOrderPinned(t *testing.T) {
	pinned := map[int]string{
		1: "ec136dd117a1cbe1fc14e0d111d7b75dee275edc47c4cea9ca83b7806fa78bd7", // westmere, 10 ranks, 398 events
		2: "25b65067eb92c73f5cd59bea3bef57372026d947b87ebeb6c646c8248e5c6a93", // power6, 8 ranks, 252 events
		3: "3ad9d7796866b61d9697f94e6b4aa91a058fa740f1a2b1346f2ec9bf55a34c7c", // hydra, 6 ranks, 238 events
		5: "cb3b9e11d8bfcaaf600ef732e9e61305410e7cc238aba72a6496d0c3a0a01737", // hydra, 4 ranks, 132 events
		6: "4674d2f618cacd10e9404c6ae8774efd88025b1ee768a64ab171ebb9c2453e6f", // hydra, 11 ranks, 196 events
		7: "bab8b32193a8ed31e33d7fbd7c1f85ee0a332614d6a865fb091acdcc83661ea6", // hydra, 13 ranks, 429 events
	}
	for seed, want := range pinned {
		_, obs, _, err := genProgram(seed).run(t)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := obs.digest(); got != want {
			t.Errorf("seed %d: observer log digest %s, pinned %s", seed, got, want)
		}
	}
}
