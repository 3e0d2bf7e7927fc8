package mpi

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/netmodel"
	"repro/internal/topo"
	"repro/internal/units"
)

// world builds a test world, failing the test on error.
func world(t *testing.T, machine string, size int) *World {
	t.Helper()
	w, err := NewWorld(arch.MustGet(machine), size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(arch.MustGet(arch.Power6), 0); err == nil {
		t.Error("size 0 must fail")
	}
	if _, err := NewWorld(arch.MustGet(arch.Power6), 129); err == nil {
		t.Error("oversubscription must fail (P6 has 128 cores)")
	}
	if _, err := NewWorld(arch.MustGet(arch.Power6), 128); err != nil {
		t.Errorf("full machine must be allowed: %v", err)
	}
}

func TestBlockingPingPong(t *testing.T) {
	w := world(t, arch.Hydra, 2)
	makespan, err := w.Run(func(r *Rank) {
		const size = 1024
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				r.Send(1, size, i)
				r.Recv(1, size, 1000+i)
			} else {
				r.Recv(0, size, i)
				r.Send(0, size, 1000+i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 messages, each at least latency + overhead; ranks 0,1 share a
	// node on Hydra, so intra-node parameters apply.
	net := arch.MustGet(arch.Hydra).Net
	minPer := (net.IntraLatencyUS + net.LibOverheadUS) * 1e-6
	if makespan < 20*minPer {
		t.Errorf("ping-pong makespan %v below physical floor %v", makespan, 20*minPer)
	}
	if makespan > 1e-2 {
		t.Errorf("ping-pong makespan %v implausibly long", makespan)
	}
}

func TestInterNodeSlowerThanIntra(t *testing.T) {
	run := func(dst int) units.Seconds {
		w := world(t, arch.Hydra, 32)
		ms, err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				for i := 0; i < 50; i++ {
					r.Send(dst, 4096, i)
				}
			case dst:
				for i := 0; i < 50; i++ {
					r.Recv(0, 4096, i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if intra, inter := run(1), run(16); intra >= inter {
		t.Errorf("intra %v should beat inter %v", intra, inter)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	w := world(t, arch.Power6, 4)
	var mu sync.Mutex
	ends := map[int]units.Seconds{}
	_, err := w.Run(func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		s := r.Isend(next, 8192, 7)
		v := r.Irecv(prev, 8192, 7)
		r.Waitall(s, v)
		mu.Lock()
		ends[r.ID()] = r.Now()
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, end := range ends {
		if end <= 0 {
			t.Errorf("rank %d finished at %v", id, end)
		}
	}
}

func TestMultipleInFlightSerialise(t *testing.T) {
	// Eq. 1: x messages in flight cost ≈ lib + x·T_inFlight, so doubling
	// x should add roughly x extra serialization times, not be free.
	elapsed := func(x int) units.Seconds {
		w := world(t, arch.Westmere, 24)
		var wait units.Seconds
		_, err := w.Run(func(r *Rank) {
			const size = 256 * units.KiB
			switch r.ID() {
			case 0:
				reqs := make([]*Request, 0, 2*x)
				for i := 0; i < x; i++ {
					reqs = append(reqs, r.Isend(12, size, i))
					reqs = append(reqs, r.Irecv(12, size, 100+i))
				}
				start := r.Now()
				r.Waitall(reqs...)
				wait = r.Now() - start
			case 12:
				reqs := make([]*Request, 0, 2*x)
				for i := 0; i < x; i++ {
					reqs = append(reqs, r.Irecv(0, size, i))
					reqs = append(reqs, r.Isend(0, size, 100+i))
				}
				r.Waitall(reqs...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return wait
	}
	one, four := elapsed(1), elapsed(4)
	if four < 2.5*one {
		t.Errorf("4 in-flight messages should serialize: x=1 %v, x=4 %v", one, four)
	}
	if four > 8*one {
		t.Errorf("serialization overshoot: x=1 %v, x=4 %v", one, four)
	}
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	// A large (rendezvous) message cannot fly before the recv posts: the
	// sender's wait must include the receiver's late arrival.
	const size = 512 * units.KiB // ≫ every machine's eager threshold
	lateRecv := func(delay units.Seconds) units.Seconds {
		w := world(t, arch.Power6, 2)
		var senderDone units.Seconds
		_, err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				req := r.Isend(1, size, 0)
				r.Waitall(req)
				senderDone = r.Now()
			} else {
				r.Compute(delay)
				r.Recv(0, size, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return senderDone
	}
	early, late := lateRecv(0), lateRecv(0.5)
	if late < 0.5 {
		t.Errorf("rendezvous send completed at %v before the receiver posted", late)
	}
	if early >= 0.4 {
		t.Errorf("prompt receiver should complete quickly, got %v", early)
	}
}

func TestEagerDoesNotWaitForReceiver(t *testing.T) {
	const size = 512 // well under every eager threshold
	w := world(t, arch.Power6, 2)
	var senderDone units.Seconds
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			req := r.Isend(1, size, 0)
			r.Waitall(req)
			senderDone = r.Now()
		} else {
			r.Compute(1.0)
			r.Recv(0, size, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone >= 0.5 {
		t.Errorf("eager send must complete without the receiver, got %v", senderDone)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two same-tag messages must match in post order; the simulation
	// completing without deadlock and with both sizes received checks
	// the queues.
	w := world(t, arch.Hydra, 2)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			a := r.Isend(1, 100, 5)
			b := r.Isend(1, 200, 5)
			r.Waitall(a, b)
		} else {
			a := r.Irecv(0, 100, 5)
			b := r.Irecv(0, 200, 5)
			r.Waitall(a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSynchronize(t *testing.T) {
	w := world(t, arch.Hydra, 16)
	var mu sync.Mutex
	var exits []units.Seconds
	_, err := w.Run(func(r *Rank) {
		// Rank i computes i ms before the barrier: everyone must leave
		// at (or after) the slowest arrival.
		r.Compute(units.Seconds(r.ID()) * 1e-3)
		r.Barrier()
		mu.Lock()
		exits = append(exits, r.Now())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exits {
		if e < 15e-3 {
			t.Errorf("a rank left the barrier at %v, before the slowest arrival", e)
		}
	}
	first := exits[0]
	for _, e := range exits {
		if math.Abs(e-first) > 1e-12 {
			t.Errorf("ranks left the barrier at different times: %v vs %v", e, first)
		}
	}
}

func TestCollectiveCostGrowsWithSize(t *testing.T) {
	run := func(size units.Bytes) units.Seconds {
		w := world(t, arch.Westmere, 32)
		ms, err := w.Run(func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.Allreduce(size)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if small, big := run(8), run(1*units.MiB); small >= big {
		t.Errorf("allreduce cost must grow with size: %v vs %v", small, big)
	}
}

// TestCollectiveMismatchPanics: in either of the two slots, and in a slot
// an earlier collective has used and freed.
func TestCollectiveMismatchPanics(t *testing.T) {
	for seq := 0; seq < 4; seq++ {
		w := world(t, arch.Hydra, 2)
		_, err := w.Run(func(r *Rank) {
			for i := 0; i < seq; i++ {
				r.Bcast(0, 8)
			}
			if r.ID() == 0 {
				r.Barrier()
			} else {
				r.Allreduce(8)
			}
		})
		want := fmt.Sprintf("collective mismatch at seq %d", seq)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatched collectives must fail loudly with %q, got %v", want, err)
		}
	}
}

func TestBcastCheaperOnBlueGeneTree(t *testing.T) {
	// The same 64-rank broadcast, relative to point-to-point cost, is far
	// cheaper on BG/P's collective tree than a binomial tree would be.
	msOn := func(machine string) units.Seconds {
		w := world(t, machine, 64)
		ms, err := w.Run(func(r *Rank) {
			for i := 0; i < 20; i++ {
				r.Bcast(0, 4096)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	bg := msOn(arch.BlueGene)
	hy := msOn(arch.Hydra)
	// BG/P's p2p latency is comparable to Hydra's, but its tree bcast
	// avoids the log(p) stages: it should not be slower despite the much
	// slower links.
	if bg > hy {
		t.Errorf("BG/P tree bcast %v should beat Hydra binomial %v", bg, hy)
	}
}

func TestDeadlockReported(t *testing.T) {
	w := world(t, arch.Hydra, 2)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 64, 0) // nobody sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unmatched recv must deadlock, got %v", err)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	w := world(t, arch.Hydra, 4)
	obs := &recordingObserver{}
	w.SetObserver(obs)
	_, err := w.Run(func(r *Rank) {
		r.Compute(0.001)
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		s := r.Isend(next, 2048, 0)
		v := r.Irecv(prev, 2048, 0)
		r.Waitall(s, v)
		r.Allreduce(64)
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.compute != 4 {
		t.Errorf("observer saw %d compute events, want 4", obs.compute)
	}
	want := map[Routine]int{
		RoutineIsend: 4, RoutineIrecv: 4, RoutineWaitall: 4, RoutineAllreduce: 4,
	}
	for rt, n := range want {
		if obs.routines[rt] != n {
			t.Errorf("observer saw %d %s events, want %d", obs.routines[rt], rt, n)
		}
	}
	if obs.waitallBytes != 2048 {
		t.Errorf("Waitall mean bytes = %d, want 2048", obs.waitallBytes)
	}
	if obs.waitallCount != 2 {
		t.Errorf("Waitall request count = %d, want 2", obs.waitallCount)
	}
}

// recordingObserver counts events for the observer test.
type recordingObserver struct {
	mu           sync.Mutex
	compute      int
	routines     map[Routine]int
	waitallBytes units.Bytes
	waitallCount int
}

func (o *recordingObserver) OnCompute(rank int, dt units.Seconds) {
	o.mu.Lock()
	o.compute++
	o.mu.Unlock()
}

func (o *recordingObserver) OnRoutine(rank int, ev RoutineEvent) {
	o.mu.Lock()
	if o.routines == nil {
		o.routines = map[Routine]int{}
	}
	o.routines[ev.Routine]++
	if ev.Routine == RoutineWaitall {
		o.waitallBytes = ev.Bytes
		o.waitallCount = ev.Count
	}
	o.mu.Unlock()
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() units.Seconds {
		w := world(t, arch.Westmere, 48)
		ms, err := w.Run(func(r *Rank) {
			for step := 0; step < 5; step++ {
				r.Compute(units.Seconds(r.ID()%7) * 1e-4)
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				s := r.Isend(next, 16*units.KiB, step)
				v := r.Irecv(prev, 16*units.KiB, step)
				r.Waitall(s, v)
				if step%2 == 0 {
					r.Allreduce(8)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic makespan: %v vs %v", got, first)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Routine]Class{
		RoutineIsend:     ClassP2PNB,
		RoutineIrecv:     ClassP2PNB,
		RoutineWaitall:   ClassP2PNB,
		RoutineSend:      ClassP2PB,
		RoutineSendrecv:  ClassP2PB,
		RoutineBcast:     ClassCollective,
		RoutineAllreduce: ClassCollective,
		RoutineBarrier:   ClassCollective,
	}
	for rt, want := range cases {
		if got := ClassOf(rt); got != want {
			t.Errorf("ClassOf(%s) = %s, want %s", rt, got, want)
		}
	}
}

// TestAllocationsFlatInMessages: a wait frees its requests, so a one-shot
// world's allocations do not grow with the messages it simulates — a ring
// of 1 000 rounds allocates what one of 100 does. Before waits freed their
// requests, every message carved a fresh Request and Signal.
func TestAllocationsFlatInMessages(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			w := world(t, arch.Hydra, 16)
			_, err := w.Run(func(r *Rank) {
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				for i := 0; i < rounds; i++ {
					v := r.Irecv(prev, 4096, i)
					s := r.Isend(next, 4096, i)
					r.Waitall(v, s)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(100), allocs(1000); long != short {
		t.Errorf("a 16-rank ring allocated %.0f times over 100 rounds and %.0f over 1000, want the same", short, long)
	}
}

// TestWaitallFreesADuplicateOnce: a request listed twice in one Waitall
// completes and is freed once, so the next two requests are two records.
func TestWaitallFreesADuplicateOnce(t *testing.T) {
	_, err := world(t, arch.Hydra, 2).Run(func(r *Rank) {
		if r.ID() == 1 {
			r.Recv(0, 64, 0)
			r.Recv(0, 64, 1)
			r.Recv(0, 64, 2)
			return
		}
		a := r.Isend(1, 64, 0)
		r.Waitall(a, a)
		if a.done != nil {
			t.Error("Waitall left its request live")
		}
		b, c := r.Isend(1, 64, 1), r.Isend(1, 64, 2)
		if b == c {
			t.Error("a request listed twice was freed twice: two live requests share a record")
		}
		if b != a && c != a {
			t.Error("the freed request's record was not reused")
		}
		r.Waitall(b, c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := world(t, arch.Hydra, 8)
	_, err := w.Run(func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		for i := 0; i < 5; i++ {
			r.Sendrecv(next, 4096, prev, 4096, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRankPanicsSurface(t *testing.T) {
	for _, c := range []struct {
		call func(r *Rank)
		want string
	}{
		{func(r *Rank) { r.Isend(5, 64, 0) }, "mpi: Isend to invalid rank 5"},
		{func(r *Rank) { r.Recv(-1, 64, 0) }, "mpi: Irecv from invalid rank -1"},
		// A Request keeps its tag in 32 bits.
		{func(r *Rank) { r.Irecv(1, 64, 1<<40) }, "does not fit in 32 bits"},
	} {
		_, err := world(t, arch.Hydra, 2).Run(func(r *Rank) {
			if r.ID() == 0 {
				c.call(r)
			}
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got %v, want an error containing %q", err, c.want)
		}
	}
}

// panicOnIsend panics inside the observer call of the n-th Isend the world
// reports, remembering whose it was.
type panicOnIsend struct {
	n, seen int
	rank    int
}

func (o *panicOnIsend) OnCompute(int, units.Seconds) {}

func (o *panicOnIsend) OnRoutine(rank int, ev RoutineEvent) {
	if ev.Routine != RoutineIsend {
		return
	}
	if o.seen++; o.seen == o.n {
		o.rank = rank
		panic("observer gave up")
	}
}

// TestPanicInAPostSurfaces: a panic raised while an Isend is made — here in
// the observer, on the third — is Run's error, naming the rank, however the
// simulator gets to making the post; and the world is usable after Reset.
func TestPanicInAPostSurfaces(t *testing.T) {
	w := world(t, arch.Hydra, 4)
	obs := &panicOnIsend{n: 3}
	w.SetObserver(obs)
	exchange := func(r *Rank) {
		next, prev := (r.ID()+1)%r.Size(), (r.ID()+r.Size()-1)%r.Size()
		for i := 0; i < 3; i++ {
			s := r.Isend(next, 4096, i)
			v := r.Irecv(prev, 4096, i)
			r.Waitall(s, v)
		}
	}
	_, err := w.Run(exchange)
	want := fmt.Sprintf("des: process rank%d panicked: observer gave up", obs.rank)
	if err == nil || err.Error() != want {
		t.Fatalf("Run returned %v, want %q", err, want)
	}
	w.Reset()
	w.SetObserver(nil)
	fresh, err := world(t, arch.Hydra, 4).Run(exchange)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.Run(exchange); err != nil || got != fresh {
		t.Errorf("after the panic and Reset: makespan %v, err %v; want %v as on a fresh world", got, err, fresh)
	}
}

// TestRequestSize: every message carves a Request, so one that grows costs
// every message. The queue's link fits in the bytes an int peer and a send
// flag took: the peer is 32 bits, its sign the direction.
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n != 32 {
		t.Errorf("Request is %d bytes, want 32", n)
	}
}

// pendingCounts returns how many sends and receives sit unmatched.
func (w *World) pendingCounts() (sends, recvs int) {
	t := &w.match
	for _, s := range t.slots {
		for e := s.tail; e != 0; {
			if t.pool[e].send {
				sends++
			} else {
				recvs++
			}
			if e = t.pool[e].next; e == s.tail {
				break
			}
		}
	}
	return sends, recvs
}

// liveColls counts the collective slots in use.
func (w *World) liveColls() (n int) {
	for i := range w.colls {
		if w.colls[i].done != nil {
			n++
		}
	}
	return n
}

// ring is a 1 MiB Sendrecv around every rank, the run the Reset tests
// repeat.
func ring(r *Rank) {
	r.Sendrecv((r.ID()+1)%r.Size(), units.MiB, (r.ID()+r.Size()-1)%r.Size(), units.MiB, 0)
}

func TestRunTwiceWithoutResetIsRefused(t *testing.T) {
	w := world(t, arch.Hydra, 4)
	first, err := w.Run(ring)
	if err != nil {
		t.Fatal(err)
	}
	// A second Run used to simulate on the first one's clock, NIC free
	// times and match lists and return an absolute time: twice the makespan.
	if _, err := w.Run(ring); err == nil || err.Error() != "mpi: world already ran; call Reset first" {
		t.Fatalf("second Run on a used world: got %v, want a refusal", err)
	}
	w.Reset()
	if again, err := w.Run(ring); err != nil || again != first {
		t.Errorf("after Reset: makespan %v, err %v; want %v as on the fresh world", again, err, first)
	}
}

// pingPongPairs has rank i exchange 1 MiB with i^1 and back. Pairs on one
// node contend for its shared-memory bus, so a node's ranks are the unit
// that may run alone.
func pingPongPairs(r *Rank) {
	partner := r.ID() ^ 1
	if partner >= r.Size() {
		return
	}
	if r.ID() < partner {
		r.Send(partner, units.MiB, 0)
		r.Recv(partner, units.MiB, 1)
	} else {
		r.Recv(partner, units.MiB, 0)
		r.Send(partner, units.MiB, 1)
	}
}

func TestRunRanksRunsAGroupAsInTheFullRun(t *testing.T) {
	// Two BG/P nodes of four ranks; each node's pairs talk only inside it.
	full, err := world(t, arch.BlueGene, 8).Run(pingPongPairs)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := world(t, arch.BlueGene, 8).RunRanks([]int{4, 5, 6, 7}, pingPongPairs)
	if err != nil || alone != full {
		t.Errorf("node 1 alone: makespan %v, err %v; want %v as in the full run", alone, err, full)
	}
}

func TestRunRanksWrongPlanFailsLoudly(t *testing.T) {
	want, err := world(t, arch.Hydra, 4).Run(ring)
	if err != nil {
		t.Fatal(err)
	}
	w := world(t, arch.Hydra, 4)
	// Rank 0's partner, rank 1, is not listed: rank 0 waits forever.
	_, err = w.RunRanks([]int{0, 2, 3}, pingPongPairs)
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "rank0: waiting on") {
		t.Fatalf("a listed rank with an unlisted partner: got %v, want a deadlock naming rank0", err)
	}
	if strings.Contains(err.Error(), "rank2") || strings.Contains(err.Error(), "rank3") {
		t.Errorf("the deadlock report names ranks that finished: %v", err)
	}
	w.Reset()
	if got, err := w.Run(ring); err != nil || got != want {
		t.Errorf("after the deadlock and Reset: makespan %v, err %v; want %v as on a fresh world", got, err, want)
	}
}

func TestRunRanksRejectsBadIds(t *testing.T) {
	w := world(t, arch.Hydra, 4)
	for _, ids := range [][]int{{-1, 0}, {2, 4}, {1, 1}, {0, 2, 2}, {3, 1}} {
		if _, err := w.RunRanks(ids, pingPongPairs); err == nil || !strings.Contains(err.Error(), "RunRanks") {
			t.Errorf("RunRanks(%v): got %v, want a refusal", ids, err)
		}
	}
	// A refused call runs nothing, so the world needs no Reset.
	if _, err := w.RunRanks([]int{0, 1}, pingPongPairs); err != nil {
		t.Errorf("valid ids after refusals: %v", err)
	}
}

func TestResetAfterAnyEnding(t *testing.T) {
	want, err := world(t, arch.Hydra, 4).Run(ring)
	if err != nil {
		t.Fatal(err)
	}
	endings := []struct {
		name    string
		program func(r *Rank)
		wantErr string
	}{
		{"a clean run", ring, ""},
		{"a deadlocked run", func(r *Rank) {
			r.Barrier()
			if r.ID() == 0 {
				r.Isend(1, units.MiB, 7) // rendezvous: stays in the match table
				r.Recv(1, 64, 0)         // nobody sends
			}
		}, "deadlock"},
		{"a run that left eager sends unmatched", func(r *Rank) {
			r.Compute(1e-3)
			if r.ID() != 0 {
				r.Isend(0, 64, r.ID()) // nobody receives
			}
		}, ""},
		{"a run that panicked mid-collective", func(r *Rank) {
			if r.ID() == 0 {
				r.Barrier()
			} else {
				r.Allreduce(8)
			}
		}, "collective mismatch"},
	}
	w := world(t, arch.Hydra, 4)
	w.Reset() // legal on a fresh world too
	for _, e := range endings {
		_, err := w.Run(e.program)
		switch {
		case e.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", e.name, err)
		case e.wantErr != "" && (err == nil || !strings.Contains(err.Error(), e.wantErr)):
			t.Fatalf("%s: got %v, want %s", e.name, err, e.wantErr)
		}
		w.Reset()
		if sends, recvs := w.pendingCounts(); sends != 0 || recvs != 0 || w.liveColls() != 0 {
			t.Errorf("after %s, Reset left %d sends, %d recvs, %d collectives pending", e.name, sends, recvs, w.liveColls())
		}
		if got, err := w.Run(ring); err != nil || got != want {
			t.Errorf("after %s and Reset: makespan %v, err %v; want %v as on a fresh world", e.name, got, err, want)
		}
		w.Reset()
	}
}

// Now returns the current virtual time, once the queued posts are made.
func (r *Rank) Now() units.Seconds {
	r.flush()
	return r.proc.Now()
}

// refP2P is the point-to-point price as it was computed for every message
// before worlds priced from a node-pair table: the hop count looked up per
// call, src and dst rank indices.
func refP2P(m *arch.Machine, tp topo.Topology, src, dst int, size units.Bytes) netmodel.P2PCost {
	net := &m.Net
	lib := net.LibOverheadUS * 1e-6
	srcNode, dstNode := src/m.CoresPerNode, dst/m.CoresPerNode
	if srcNode == dstNode {
		return netmodel.P2PCost{
			LibOverhead: lib,
			Latency:     net.IntraLatencyUS * 1e-6,
			Serialize:   float64(size) / (net.IntraBandwidthGBs * 1e9),
			Rendezvous:  size >= net.RendezvousB,
			Handshake:   2 * net.IntraLatencyUS * 1e-6,
		}
	}
	hops := tp.Hops(srcNode, dstNode)
	lat := (net.LatencyUS + float64(hops)*net.PerHopUS) * 1e-6
	return netmodel.P2PCost{
		LibOverhead: lib,
		Latency:     lat,
		Serialize:   float64(size) / (net.BandwidthGBs * 1e9),
		Rendezvous:  size >= net.RendezvousB,
		Handshake:   2 * lat,
	}
}

// TestPricesMatchPerMessageFormula holds a world's message prices, read
// from its node-pair table, to the per-message formula they replace, bit
// for bit: on every machine, at every world size a projection builds (16 to
// 128 ranks, 512 for class D, and a partial last node), for every ordered
// pair of the world's nodes, at every size of IMB's grid and NAS-MZ's
// message span, and at each side of the rendezvous threshold. The two
// constants a post reads are held to the same formula.
func TestPricesMatchPerMessageFormula(t *testing.T) {
	same := func(a, b units.Seconds) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, name := range arch.Names() {
		m := arch.MustGet(name)
		tp := topo.For(m)
		// imb.DefaultSizes, then nas.MessageSpan's two ends.
		sizes := append(units.Pow2Sizes(4, units.MiB), 0, 20160, 1109760, m.Net.RendezvousB-1, m.Net.RendezvousB)
		for _, ranks := range []int{2, 13, 16, 32, 64, 128, 512} {
			if ranks > m.TotalCores {
				continue
			}
			w, err := NewWorld(m, ranks)
			if err != nil {
				t.Fatal(err)
			}
			want := refP2P(m, tp, 0, 0, 0)
			if !same(w.lib, want.LibOverhead) || w.rendezvous != m.Net.RendezvousB {
				t.Fatalf("%s@%d: a post reads overhead %v and threshold %d, want %v and %d", name, ranks, w.lib, w.rendezvous, want.LibOverhead, m.Net.RendezvousB)
			}
			nodes := w.Model.NodeOf(ranks-1) + 1
			for a := 0; a < nodes; a++ {
				for b := 0; b < nodes; b++ {
					for _, size := range sizes {
						got, want := w.Model.P2P(a, b, size), refP2P(m, tp, a*m.CoresPerNode, b*m.CoresPerNode, size)
						if !same(got.LibOverhead, want.LibOverhead) || !same(got.Latency, want.Latency) ||
							!same(got.Serialize, want.Serialize) || got.Rendezvous != want.Rendezvous || !same(got.Handshake, want.Handshake) {
							t.Fatalf("%s@%d: node %d → %d at %d B priced %+v, want %+v", name, ranks, a, b, size, got, want)
						}
					}
				}
			}
		}
	}
}
