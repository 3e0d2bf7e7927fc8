package mpi

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// Seeded programs for the paths genProgram's steps never take: a Waitall on
// a reordered or partial list of a rank's posts, posts followed by Compute,
// Now or a collective before their wait, and a body that returns with posts
// it never waited on. They have their own generator so genProgram's draws,
// and the digests pinned on them, stay as they are.

// waitMode is how a rank waits on one step's posts.
type waitMode int

const (
	waitReversed     waitMode = iota // one Waitall, the posts in reverse order
	waitSplit                        // a Waitall on the first half, then one on the rest
	waitAfterCompute                 // Compute, then one Waitall in post order
	waitAfterNow                     // Now, then one Waitall in post order
	waitAfterColl                    // a collective, then one Waitall in post order
	numWaitModes
)

// qstep is one step of a queued-post program: every rank posts its
// receives, then its sends, over edges, and waits as mode says.
type qstep struct {
	edges []edge
	mode  waitMode
	dt    []units.Seconds // waitAfterCompute: per rank
	coll  Routine         // waitAfterColl
}

// qprogram is a generated job whose last step posts messages nobody waits
// on: each rank's body ends with them.
type qprogram struct {
	machine string
	ranks   int
	steps   []qstep
	last    []edge
}

// genQueued derives a deadlock-free program from seed.
func genQueued(seed int) *qprogram {
	src := rng.New(fmt.Sprintf("mpi-queued-%d", seed))
	pg := &qprogram{
		machine: propMachines[src.Intn(len(propMachines))],
		ranks:   2 + src.Intn(15),
	}
	n := pg.ranks
	edges := func() []edge {
		var es []edge
		for e, m := 0, 1+src.Intn(2*n); e < m; e++ {
			a := src.Intn(n)
			b := (a + 1 + src.Intn(n-1)) % n
			es = append(es, edge{a, b, propSizes[src.Intn(len(propSizes))]})
		}
		return es
	}
	for s, steps := 0, 6+src.Intn(10); s < steps; s++ {
		st := qstep{edges: edges(), mode: waitMode(src.Intn(int(numWaitModes)))}
		switch st.mode {
		case waitAfterCompute:
			st.dt = make([]units.Seconds, n)
			for i := range st.dt {
				st.dt[i] = units.Seconds(src.Intn(4)) * 1e-5
			}
		case waitAfterColl:
			st.coll = propColls[src.Intn(len(propColls))]
		}
		pg.steps = append(pg.steps, st)
	}
	pg.last = edges()
	return pg
}

// post makes rank r's posts over es with tag: receives first, then sends.
func post(r *Rank, es []edge, tag int) []*Request {
	var reqs []*Request
	for _, e := range es {
		if e.dst == r.ID() {
			reqs = append(reqs, r.Irecv(e.src, e.size, tag))
		}
	}
	for _, e := range es {
		if e.src == r.ID() {
			reqs = append(reqs, r.Isend(e.dst, e.size, tag))
		}
	}
	return reqs
}

// exec runs the whole program on one rank; Now's answers go into obs's log.
func (pg *qprogram) exec(r *Rank, obs *logObserver) {
	id, n := r.ID(), r.Size()
	for s := range pg.steps {
		st := &pg.steps[s]
		reqs := post(r, st.edges, s)
		switch st.mode {
		case waitReversed:
			slices.Reverse(reqs)
		case waitSplit:
			r.Waitall(reqs[:len(reqs)/2]...)
			reqs = reqs[len(reqs)/2:]
		case waitAfterCompute:
			r.Compute(st.dt[id])
		case waitAfterNow:
			obs.log = append(obs.log, logEntry{t: r.Now(), rank: id, routine: "now"})
		case waitAfterColl:
			switch st.coll {
			case RoutineBcast:
				r.Bcast(s%n, st.edges[0].size)
			case RoutineReduce:
				r.Reduce(s%n, st.edges[0].size)
			case RoutineAllreduce:
				r.Allreduce(st.edges[0].size)
			case RoutineAllgather:
				r.Allgather(st.edges[0].size)
			case RoutineAlltoall:
				r.Alltoall(st.edges[0].size)
			default:
				r.Barrier()
			}
		}
		r.Waitall(reqs...)
	}
	post(r, pg.last, len(pg.steps))
}

// fullDigest is the SHA-256 of the whole observer stream — clock, rank,
// routine, bytes, count, elapsed time and peers — floats as exact bits.
func (o *logObserver) fullDigest() string {
	h := sha256.New()
	for _, e := range o.log {
		fmt.Fprintf(h, "%016x %d %s %d %d %016x %v\n", math.Float64bits(e.t), e.rank, e.routine,
			e.bytes, e.count, math.Float64bits(e.elapsed), e.peers)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// run simulates the program on a fresh world.
func (pg *qprogram) run(t *testing.T) (*logObserver, units.Seconds, error) {
	t.Helper()
	w := world(t, pg.machine, pg.ranks)
	obs := &logObserver{w: w}
	w.SetObserver(obs)
	makespan, err := w.Run(func(r *Rank) { pg.exec(r, obs) })
	return obs, makespan, err
}

// TestQueuedPostsOrderPinned holds the observer stream of genQueued's
// programs to digests recorded before Isend and Irecv queued their posts,
// when every post was made inside the call: making them later, at the
// rank's next wait, must not move any event, clock reading, elapsed time or
// makespan.
func TestQueuedPostsOrderPinned(t *testing.T) {
	pinned := map[int]string{
		1: "96bc7337f090f2fb981ff67823bfb8accdea2a3e4a2a4b55d9b5a1ea9dbc0c34 3f860ae8552d47d0", // power6-575, 14 ranks, 516 events
		2: "56ff742d25447d83c04fc0531c7c355497c2fd12fa246948593d8471db30d6b9 3f7ad218bc0e8e8e", // hydra, 6 ranks, 296 events
		3: "4cad0489b6ecc2210c72510c0e74672a2e3386819995596be19dfb5c607ba91d 3f900dd05e62f2fa", // hydra, 16 ranks, 448 events
		4: "6137be558526ebc3efdeb8b3cc67bb4219b8e39156357f85d23d9a7902c0ad94 3f93b2b75e0be021", // hydra, 16 ranks, 680 events
		5: "657694955810a2e554f5e48be2df9dc41411f4dcfd4175bc5fff032672272ee7 3f74b0533cc619b6", // hydra, 2 ranks, 108 events
		6: "e72c2b6223a72d191726b7c9df72e08636961622a89f89d219bf84e7ba9f7fd1 3f73668fd018e6e8", // westmere-x5670, 14 ranks, 388 events
		7: "a4382eb47b7398176fce213e7395c18f114ab74b18df9845f1c8dbacd8190e7f 3fb46dec29460705", // bgp, 12 ranks, 772 events
		8: "ff60bb7173f386b1a668fed3c524b57069c869d70d5de87b22abbe7cb811e30d 3f932c6a99ff9dd4", // power6-575, 15 ranks, 719 events
	}
	modes := map[waitMode]bool{}
	for seed := 1; seed <= len(pinned); seed++ {
		pg := genQueued(seed)
		for _, st := range pg.steps {
			modes[st.mode] = true
		}
		obs, makespan, err := pg.run(t)
		if err != nil {
			t.Fatalf("seed %d (%s, %d ranks): %v", seed, pg.machine, pg.ranks, err)
		}
		got := fmt.Sprintf("%s %016x", obs.fullDigest(), math.Float64bits(makespan))
		if want := pinned[seed]; got != want {
			t.Errorf("seed %d: digest and makespan %s, pinned %s", seed, got, want)
		}
	}
	if len(modes) != int(numWaitModes) {
		t.Errorf("the pinned programs wait in %d of the %d ways", len(modes), numWaitModes)
	}
}
