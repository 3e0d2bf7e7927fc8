// Package mpi is a discrete-event MPI simulator: rank processes run as
// coroutines on the des kernel, exchange messages priced by netmodel, and
// synchronize through collectives. It stands in for the IBM Parallel
// Environment MPI the paper profiles.
//
// Semantics implemented:
//
//   - Non-blocking point-to-point (Isend/Irecv/Waitall) with tag matching
//     in post order, eager and rendezvous protocols, and per-rank NIC
//     serialization — so several in-flight messages cost
//     lib + x·T_inFlight, the paper's Eq. 1 with x > 1.
//   - Blocking point-to-point (Send/Recv/Sendrecv) built on the same
//     machinery.
//   - Collectives (Bcast/Reduce/Allreduce, and Allgather/Alltoall/Barrier
//     in this package's tests only) with synchronizing semantics: all
//     ranks enter, the operation costs netmodel's algorithm price from the
//     last arrival, all leave together. This is why blocking collectives
//     show near-zero WaitTime in profiles, matching the paper's
//     observation.
//
// An Observer hook receives every compute advance and routine completion;
// internal/mpiprof builds the paper's MPI profile from it.
//
// A World runs one program. To run another on the same machine and rank
// count, Reset it rather than building a new one: the world keeps its rank
// handles, request arena, match table and kernel, and a benchmark suite's
// few hundred measurements cost the allocations of one. A World has a
// single owner — whoever calls Run calls Reset — and Reset kills every
// Request (and the kernel's every Proc and Signal) handed out before it.
// Run refuses a world that has run and was not Reset.
//
// A request's wait ends its life, as MPI_Wait sets a completed handle to
// MPI_REQUEST_NULL: the Request and its completion signal go back to the
// world and the next message reuses them. A run therefore holds only the
// requests in flight at once, however many timesteps it simulates, and a
// one-shot world (every application run) recycles the same way a Reset one
// does.
//
// Posts are queued. Isend and Irecv check their peer, take a Request,
// link it onto the rank's queue and return without touching the clock.
// The rank's next call that waits or reads the clock — Waitall, Send,
// Recv, Sendrecv, Compute, a collective, or the end of its body — makes
// the queued posts in order: each pays its library overhead, then is
// matched, launched and reported to the Observer. When a Waitall's list
// is exactly the queued posts, in order, the same des.Proc.Hold step then
// waits on each of them, and so do Send, Recv and Sendrecv; any other
// list is waited on once the posts are made. The
// kernel runs the step at the rank's wakes, so the rank's coroutine is
// resumed once per wait, not once per post and per unfinished request.
//
// Why that is exact: the code a rank runs between two MPI calls changes
// no kernel state, so a post made at the rank's next wait is made at the
// same wake, under the same clock and tie-break, as one made inside its
// own call; the step does what the resumed body would have done, and a
// wake that only parks again takes no sequence number. Every float, event
// and observer call is where it was. The contract this rests on: a rank's
// program talks to other ranks only through MPI. A program that signals
// another rank through shared Go memory may see that write land before
// the posts that preceded it in its own code.
package mpi

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/des"
	"repro/internal/netmodel"
	"repro/internal/units"
)

// Routine names the MPI calls the simulator supports, using the paper's
// vocabulary.
type Routine string

// Supported routines.
const (
	RoutineIsend     Routine = "MPI_Isend"
	RoutineIrecv     Routine = "MPI_Irecv"
	RoutineWaitall   Routine = "MPI_Waitall"
	RoutineSend      Routine = "MPI_Send"
	RoutineRecv      Routine = "MPI_Recv"
	RoutineSendrecv  Routine = "MPI_Sendrecv"
	RoutineBcast     Routine = "MPI_Bcast"
	RoutineReduce    Routine = "MPI_Reduce"
	RoutineAllreduce Routine = "MPI_Allreduce"
)

// Class buckets routines the way the paper's figures do.
type Class string

// Routine classes (the paper's figure legend).
const (
	ClassP2PNB      Class = "P2P-NB"      // non-blocking point-to-point
	ClassP2PB       Class = "P2P-B"       // blocking point-to-point
	ClassCollective Class = "COLLECTIVES" // collectives
)

// ClassOf maps a routine to its class.
func ClassOf(r Routine) Class {
	switch r {
	case RoutineIsend, RoutineIrecv, RoutineWaitall:
		return ClassP2PNB
	case RoutineSend, RoutineRecv, RoutineSendrecv:
		return ClassP2PB
	default:
		return ClassCollective
	}
}

// RoutineEvent is one completed MPI call, as reported to an Observer.
type RoutineEvent struct {
	Routine Routine
	// Bytes is the per-message size (for Waitall: the mean size of the
	// requests waited on).
	Bytes units.Bytes
	// Count is how many messages the call involved (1 except Waitall).
	Count int
	// Elapsed is the caller's wall time inside the routine.
	Elapsed units.Seconds
	// Peers are the remote ranks of the messages involved (point-to-point
	// only). The profile uses them to model the communication pattern —
	// which peer distances the application talks to — so a projection can
	// split intra-node from inter-node traffic under any node geometry.
	// The slice is backed by one scratch per world, shared by its ranks:
	// observer calls are synchronous and a world runs one rank at a time,
	// so it is valid only for the duration of the OnRoutine call and must
	// not be retained.
	Peers []int
}

// Observer receives simulation activity; implementations must be cheap and
// must not block. Event slices (RoutineEvent.Peers) are the world's one
// scratch, reused by every call on every rank, and must not be retained
// past the callback.
type Observer interface {
	// OnCompute reports dt of application compute on a rank.
	OnCompute(rank int, dt units.Seconds)
	// OnRoutine reports a completed MPI call on a rank.
	OnRoutine(rank int, ev RoutineEvent)
}

// pending is a posted-but-unmatched operation in a world's match table: a
// receive waiting for its send, or a send that arrived before its receive.
// Its destination, source and tag are its table slot's key. It is kept to
// 32 bytes (TestPendingSize): every unmatched message writes one.
type pending struct {
	post units.Seconds // when the operation was posted (after overhead)
	req  *Request      // nil on an eager send's entry: nothing reads it again

	// Sends only.
	arrival units.Seconds // eager: when the payload lands at the destination
	eager   bool

	send bool  // a send's entry; a key's entries are all of one kind
	next int32 // the next entry of its FIFO (the newest's is the oldest), or of the free list
}

// matchKey is what an operation matches on: its destination, source and
// tag. The simulator has no wildcard receive.
type matchKey struct {
	dst, src, tag int32
}

// hash folds k into one word and multiplies it by 2^64/φ, which carries
// every bit of the word into the top ones; a table of 2^b slots takes the
// top b. The fold is one-to-one while ranks and tags stay below 2^21;
// past that it only spreads keys less evenly.
func (k matchKey) hash() uint64 {
	return (uint64(uint32(k.dst))<<42 ^ uint64(uint32(k.src))<<21 ^ uint64(uint32(k.tag))) * 0x9e3779b97f4a7c15
}

// matchSlot is one key's FIFO in a matchTable: its newest entry in the
// table's pool, whose link is the oldest, so one index holds both ends.
// tail 0 marks an empty slot.
type matchSlot struct {
	key  matchKey
	tail int32
}

// matchTable is a world's unmatched operations: one FIFO per (destination,
// source, tag), in post order. That is all matching needs. With no
// wildcard receive, an operation can only match the oldest of the other
// kind waiting on its own key, and nothing reads the order across keys.
// A key never holds both kinds at once: an operation that finds the other
// kind waiting matches it, so it queues only behind its own kind. Matching
// or queuing therefore costs one probe, however many operations wait.
//
// The slots are open-addressed with linear probing and at most half full;
// an emptied key's slot is refilled by shifting its probe run back, so no
// lookup walks past a dead slot. The FIFOs are circular lists linked
// through one pool of entries with a free list; pool[0] is the nil entry.
// DESIGN.md §12.
type matchTable struct {
	slots []matchSlot // len a power of two
	shift uint        // 64 - log2(len(slots))
	keys  int         // slots in use
	pool  []pending
	free  int32 // the first free pool entry, 0 if none
}

// reserve makes room in t for n entries under as many keys without a
// rehash or a pool growth, keeping what it holds.
func (t *matchTable) reserve(n int) {
	if 2*n > len(t.slots) {
		t.resize(2 * n)
	}
	if cap(t.pool) < n+1 {
		pool := make([]pending, max(len(t.pool), 1), n+1)
		copy(pool, t.pool)
		t.pool = pool
	}
}

// alloc gives t empty slots, at least n and a power of two.
func (t *matchTable) alloc(n int) {
	b := uint(1)
	for 1<<b < n {
		b++
	}
	t.slots, t.shift, t.keys = make([]matchSlot, 1<<b), 64-b, 0
}

// reset empties t, keeping its memory.
func (t *matchTable) reset() {
	clear(t.slots)
	t.keys, t.pool, t.free = 0, t.pool[:min(len(t.pool), 1)], 0
}

// find returns the slot holding k, or the empty slot that ends its probe
// run.
func (t *matchTable) find(k matchKey) int {
	mask := len(t.slots) - 1
	i := int(k.hash() >> t.shift)
	for t.slots[i].tail != 0 && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// match finds what an operation of kind send on k meets. If the oldest
// operation of the other kind — a receive for a send, a send for a
// receive — waits on k, match unlinks its entry and returns it, matched,
// for the caller to take. Otherwise it queues a new entry, zero but for
// its kind and link, behind k's others of the operation's kind and returns
// that, for the caller to fill in the pool (kind and link are the
// table's). Entries are handed out by index, not copied in or out, so a
// match moves no more than the fields its caller reads or writes.
func (t *matchTable) match(k matchKey, send bool) (e int32, matched bool) {
	i := t.find(k)
	last := t.slots[i].tail
	if last != 0 && t.pool[last].send != send {
		e = t.pool[last].next
		if e == last {
			t.remove(i)
		} else {
			t.pool[last].next = t.pool[e].next
		}
		return e, true
	}
	if e = t.free; e != 0 {
		t.free = t.pool[e].next
	} else {
		e = int32(len(t.pool))
		t.pool = append(t.pool, pending{})
	}
	t.pool[e].send = send
	if last != 0 {
		t.pool[e].next, t.pool[last].next = t.pool[last].next, e
		t.slots[i].tail = e
		return e, false
	}
	t.pool[e].next = e
	if 2*(t.keys+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i = t.find(k)
	}
	t.slots[i] = matchSlot{key: k, tail: e}
	t.keys++
	return e, false
}

// take returns matched entry e and frees it.
func (t *matchTable) take(e int32) pending {
	p := t.pool[e]
	t.pool[e] = pending{next: t.free} // no pointer kept for the GC
	t.free = e
	return p
}

// resize gives t at least n slots and rehashes its keys into them.
func (t *matchTable) resize(n int) {
	old, keys := t.slots, t.keys
	t.alloc(n)
	for _, s := range old {
		if s.tail != 0 {
			t.slots[t.find(s.key)] = s
		}
	}
	t.keys = keys
}

// remove empties slot i and shifts back the rest of its probe run: an
// entry moves into the hole unless its home lies cyclically after the hole
// and at or before the entry itself.
func (t *matchTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].tail != 0; j = (j + 1) & mask {
		home := int(t.slots[j].key.hash() >> t.shift)
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = matchSlot{}
	t.keys--
}

// Request is a non-blocking operation handle. It is dead once a wait on it
// (Wait, Waitall) has returned: its storage is the next message's, so
// waiting on it again is a bug. It is kept to 32 bytes (TestRequestSize):
// every message carves one.
type Request struct {
	done *des.Signal // nil until the post is made
	next *Request    // the next post in its rank's queue
	size units.Bytes
	peer int32 // a send's destination, or ^source for a receive
	tag  int32
}

// remote returns the rank at the other end and whether q is a send.
func (q *Request) remote() (peer int, send bool) {
	if q.peer >= 0 {
		return int(q.peer), true
	}
	return int(^q.peer), false
}

// collOp tracks one in-progress collective; a zero one (done nil) is a
// free slot. A world needs two: collectives synchronise, so no rank can
// enter seq+2 before every rank has entered seq+1 — by which time all have
// entered seq, and its slot, seq&1, is free again.
type collOp struct {
	routine Routine
	size    units.Bytes
	arrived int
	last    units.Seconds
	done    *des.Signal
}

// World is one simulated MPI job on one machine.
type World struct {
	Machine *arch.Machine
	Model   *netmodel.Model

	kernel *des.Kernel
	size   int

	// The two parts of a message's price its post reads: the library
	// overhead every post pays, and the size from which a send waits for
	// its receive. The rest of a price is worked out once, when the
	// message launches (Model.P2P).
	lib        units.Seconds
	rendezvous units.Bytes

	// NICs belong to nodes, not ranks: every rank on a node shares its
	// adapters, so inter-node traffic serializes per node — the dominant
	// contention effect when 16 tasks share one HPS/InfiniBand adapter.
	// Intra-node (shared-memory) messages bypass the NIC.
	// The three are carved from one slab, nic.
	nic     []units.Seconds
	txFree  []units.Seconds // per-node NIC injection availability
	rxFree  []units.Seconds // per-node NIC reception availability
	shmFree []units.Seconds // per-node shared-memory transport availability

	// Point-to-point matching state: receives waiting for their send, and
	// sends that arrived before their receive.
	match matchTable

	colls   [2]collOp // the collective of sequence number seq is colls[seq&1]
	signals int       // unique signal naming

	// A simulated job mints one Request per message — millions per
	// characterisation — so they are carved from an arena, and each goes
	// back to it at its wait (release).
	reqs des.Arena[Request]

	ranks   []Rank            // the rank handles, reused by every Run
	program func(r *Rank)     // what the current Run executes on every rank
	start   func(p *des.Proc) // every rank process's body: runs program on its rank
	ran     bool              // Run has been called since NewWorld or Reset

	obs   Observer
	peers []int // backs RoutineEvent.Peers for every rank (see Observer)
}

// NewWorld creates a job of size ranks on machine m with one task per
// core, densely packed onto nodes.
func NewWorld(m *arch.Machine, size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	if size > m.TotalCores {
		return nil, fmt.Errorf("mpi: %d ranks exceed %s's %d cores", size, m.Name, m.TotalCores)
	}
	nodes := (size + m.CoresPerNode - 1) / m.CoresPerNode
	// A world allocates per world, not per rank: one slab for the NICs,
	// one for all rank handles, and, at its first Run, the match table's
	// slots and pool; process names render lazily via SpawnKind.
	nic := make([]units.Seconds, 3*nodes)
	md := netmodel.New(m, size)
	w := &World{
		Machine:    m,
		Model:      md,
		kernel:     des.NewKernel(),
		size:       size,
		lib:        md.P2P(0, 0, 0).LibOverhead,
		rendezvous: m.Net.RendezvousB,
		nic:        nic,
		txFree:     nic[:nodes:nodes],
		rxFree:     nic[nodes : 2*nodes : 2*nodes],
		shmFree:    nic[2*nodes:],
		ranks:      make([]Rank, size),
	}
	for i := range w.ranks {
		w.ranks[i] = Rank{w: w, id: i}
	}
	// One process body for the whole world: a rank process finds its
	// handle by the id it was spawned with.
	w.start = func(p *des.Proc) {
		rank := &w.ranks[p.ID()]
		rank.proc = p
		w.program(rank)
		rank.flush()
	}
	return w, nil
}

// SetObserver installs the profiling hook. Must be called before Run.
func (w *World) SetObserver(o Observer) { w.obs = o }

// Reserve makes room in the world's match table for n operations waiting
// unmatched at once — a receive posted before its send, or a send before
// its receive — so that a program that never has more waiting runs without
// growing the table. A program that has more still runs: the table doubles
// as it fills. Without a Reserve, the table starts with room for one
// operation per rank.
func (w *World) Reserve(n int) { w.match.reserve(n) }

// Run executes program on every rank and drives the simulation to
// completion, returning the job's makespan (the virtual time when the last
// rank finishes). A world runs once; Reset makes it runnable again.
func (w *World) Run(program func(r *Rank)) (units.Seconds, error) {
	return w.run(nil, program)
}

// RunRanks is Run on the listed ranks only, ids strictly ascending; the
// rest of the world stays idle. It is for programs whose ranks fall into
// groups that share no message, node or collective, so a group run alone
// has exactly the history it has inside the full run. A listed rank that
// waits on an unlisted one deadlocks, and Run reports the deadlock.
func (w *World) RunRanks(ids []int, program func(r *Rank)) (units.Seconds, error) {
	for i, id := range ids {
		if id < 0 || id >= w.size || i > 0 && id <= ids[i-1] {
			return 0, fmt.Errorf("mpi: RunRanks ids must ascend strictly within [0, %d), got %v", w.size, ids)
		}
	}
	return w.run(ids, program)
}

// run spawns program on ids (nil: every rank) and runs the kernel.
func (w *World) run(ids []int, program func(r *Rank)) (units.Seconds, error) {
	if w.ran {
		return 0, errors.New("mpi: world already ran; call Reset first")
	}
	w.ran = true
	w.program = program
	if w.match.slots == nil {
		w.match.reserve(w.size)
	}
	n := len(ids)
	if ids == nil {
		n = w.size
	}
	for i := 0; i < n; i++ {
		id := i
		if ids != nil {
			id = ids[i]
		}
		w.kernel.SpawnKind("rank", id, w.start)
	}
	if err := w.kernel.Run(); err != nil {
		return 0, err
	}
	return w.kernel.Now(), nil
}

// Reset returns the world to the state NewWorld left it in — clock at zero,
// idle NICs, nothing posted, no collective in progress — keeping its memory,
// so one world can run many programs back to back for the allocations of
// one. It is legal on a fresh world and after any Run, whether that ended
// cleanly, deadlocked, failed, or left eager sends nobody received. The
// observer stays installed.
//
// Every Request a previous Run handed out is dead. Memory is kept from the
// first Reset on: a world that is never Reset lets what its messages used
// be collected while it runs (see des.Arena).
func (w *World) Reset() {
	w.kernel.Reset()
	clear(w.nic)
	w.match.reset()
	w.colls = [2]collOp{}
	w.signals = 0
	w.reqs.Rewind()
	for i := range w.ranks {
		w.ranks[i].collSeq = 0
		w.ranks[i].q = queue{}
	}
	w.ran = false
}

// newSignal mints a uniquely named signal. The name is formatted lazily
// by the kernel — only deadlock reports ever render it.
func (w *World) newSignal(kind string) *des.Signal {
	w.signals++
	return w.kernel.NewSignalKind(kind, w.signals)
}

// Rank is the per-process MPI handle.
type Rank struct {
	w    *World
	id   int
	proc *des.Proc

	collSeq int
	q       queue // posts Isend and Irecv queued, not yet made
}

// queue is a rank's posts that Isend and Irecv have queued and nobody has
// made yet, linked through Request.next from head to tail, and how far
// step has got in making them and waiting on them. Outside a Hold every
// queued post is unmade, so cursor is head.
type queue struct {
	head, tail *Request
	cursor     *Request // the first post not made yet
	// start is when the cursor post's overhead began and, once every post
	// is made, when the last one was: a Waitall's start.
	start units.Seconds
	slept bool // the cursor post's overhead has passed
	await bool // once made, the posts are waited on too
	quiet bool // the posts are a blocking call's: report none
}

// ID returns this rank's index.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Compute burns dt of application compute time.
func (r *Rank) Compute(dt units.Seconds) {
	if dt < 0 {
		dt = 0
	}
	r.flush()
	r.proc.Advance(dt)
	if r.w.obs != nil {
		r.w.obs.OnCompute(r.id, dt)
	}
}

// report sends a routine event to the observer, if any.
func (r *Rank) report(rt Routine, bytes units.Bytes, count int, elapsed units.Seconds) {
	if r.w.obs != nil {
		r.w.obs.OnRoutine(r.id, RoutineEvent{Routine: rt, Bytes: bytes, Count: count, Elapsed: elapsed})
	}
}

// reportP2P is report with the peer ranks attached. The peers slice is the
// world's scratch — valid only inside the observer call.
func (r *Rank) reportP2P(rt Routine, bytes units.Bytes, count int, elapsed units.Seconds, peers ...int) {
	if w := r.w; w.obs != nil {
		w.peers = append(w.peers[:0], peers...)
		w.obs.OnRoutine(r.id, RoutineEvent{Routine: rt, Bytes: bytes, Count: count, Elapsed: elapsed, Peers: w.peers})
	}
}

// --- point-to-point ------------------------------------------------------

// launchTransfer schedules the wire movement of a matched (or eager)
// message of price cost from node srcNode to node dstNode, returning its
// arrival time at the destination. ready is when the payload may start
// injecting (sender ready; for rendezvous also after the handshake).
// Inter-node messages serialize on the shared per-node NICs at both ends;
// intra-node messages go through shared memory and contend only with
// themselves.
func (w *World) launchTransfer(srcNode, dstNode int, cost netmodel.P2PCost, ready units.Seconds) (arrival, injected units.Seconds) {
	if srcNode == dstNode {
		// Shared-memory transport: the node's memory bus is one
		// resource; concurrent intra-node copies serialize on it.
		start := ready
		if w.shmFree[srcNode] > start {
			start = w.shmFree[srcNode]
		}
		injected = start + cost.Serialize
		w.shmFree[srcNode] = injected
		return injected + cost.Latency, injected
	}
	txStart := ready
	if w.txFree[srcNode] > txStart {
		txStart = w.txFree[srcNode]
	}
	txEnd := txStart + cost.Serialize
	w.txFree[srcNode] = txEnd
	arrival = txEnd + cost.Latency
	if w.rxFree[dstNode] > arrival {
		arrival = w.rxFree[dstNode]
	}
	w.rxFree[dstNode] = arrival + cost.Serialize
	return arrival, txEnd
}

// fireAt fires sig at absolute virtual time t (or immediately if past).
func (w *World) fireAt(sig *des.Signal, t units.Seconds) {
	w.kernel.FireAt(sig, t-w.kernel.Now())
}

// Isend posts a non-blocking send of size bytes to dst with tag and
// returns its request. The post is queued: it is made — its overhead paid,
// its message matched and launched, its observer event reported — by the
// rank's next call that waits or reads the clock, exactly as if made here.
func (r *Rank) Isend(dst int, size units.Bytes, tag int) *Request {
	return r.enqueue(r.to(dst), size, tag)
}

// Irecv posts a non-blocking receive of size bytes from src with tag,
// queued as Isend's post is.
func (r *Rank) Irecv(src int, size units.Bytes, tag int) *Request {
	return r.enqueue(r.from(src), size, tag)
}

// to checks a send's destination and returns it as a Request's peer.
func (r *Rank) to(dst int) int32 {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	return int32(dst)
}

// from checks a receive's source and returns it as a Request's peer.
func (r *Rank) from(src int) int32 {
	if src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	return ^int32(src)
}

// enqueue takes a request for a post to or from peer and queues it.
func (r *Rank) enqueue(peer int32, size units.Bytes, tag int) *Request {
	if int(int32(tag)) != tag {
		panic(fmt.Sprintf("mpi: tag %d does not fit in 32 bits", tag))
	}
	q := r.w.reqs.New()
	q.size, q.peer, q.tag = size, peer, int32(tag)
	if r.q.tail == nil {
		r.q.head, r.q.cursor = q, q
	} else {
		r.q.tail.next = q
	}
	r.q.tail = q
	return q
}

// flush makes the queued posts, parking the rank until they are made.
func (r *Rank) flush() {
	if r.q.head != nil {
		r.proc.Hold((*poster)(r))
	}
}

// wait makes the queued posts and waits on each, in queue order, parking
// the rank until the last has completed.
func (r *Rank) wait() {
	r.q.await = true
	r.proc.Hold((*poster)(r))
}

// poster is a Rank as the des.Stepper that makes its queued posts: a type
// of its own, so Step is not among Rank's methods.
type poster Rank

// Step makes the rank's queued posts in order and, if the queue is to be
// waited on, waits on them in the same order; see step.
func (s *poster) Step(p *des.Proc) bool { return (*Rank)(s).step(p) }

// step is what the rank's body would do from its first post to the end of
// its wait: pay each post's overhead and make it, then wait on each
// request. It runs at the same wakes the body would, under the same clock,
// and stops where the body would park, so every event, seq and observer
// call is where the body's own calls would put it.
func (r *Rank) step(p *des.Proc) bool {
	q := &r.q
	for rq := q.cursor; rq != nil; rq = q.cursor {
		if !q.slept {
			q.start = p.Now()
			if !p.Sleep(r.w.lib) {
				q.slept = true
				return false
			}
		}
		q.slept, q.cursor = false, rq.next
		if peer, send := rq.remote(); send {
			r.makeSend(rq, peer)
		} else {
			r.makeRecv(rq, peer)
		}
		q.start = p.Now()
	}
	for rq := q.head; q.await && rq != nil; rq = q.head {
		if !p.Await(rq.done) {
			return false
		}
		q.head = rq.next
	}
	*q = queue{start: q.start}
	return true
}

// makeSend makes a queued send of req to dst.
func (r *Rank) makeSend(req *Request, dst int) {
	w := r.w
	now := w.kernel.Now()
	req.done = w.newSignal("send")
	e, matched := w.match.match(matchKey{dst: int32(dst), src: int32(r.id), tag: req.tag}, true)
	if req.size >= w.rendezvous {
		if matched {
			w.completeRendezvous(r.id, dst, pending{post: now, req: req}, w.match.take(e))
		} else {
			q := &w.match.pool[e]
			q.post, q.req = now, req
		}
	} else {
		// Eager: the payload flies now; the send completes once the
		// NIC has swallowed it (independent of the receiver).
		a, b := w.Model.NodeOf(r.id), w.Model.NodeOf(dst)
		arrival, injected := w.launchTransfer(a, b, w.Model.P2P(a, b, req.size), now)
		w.fireAt(req.done, injected)
		if matched {
			w.fireAt(w.match.take(e).req.done, arrival)
		} else {
			// The receive that takes this entry reads only its arrival,
			// and req may be released at its wait before then.
			q := &w.match.pool[e]
			q.post, q.arrival, q.eager = now, arrival, true
		}
	}
	if !r.q.quiet {
		r.reportP2P(RoutineIsend, req.size, 1, now-r.q.start, dst)
	}
}

// makeRecv makes a queued receive of req from src.
func (r *Rank) makeRecv(req *Request, src int) {
	w := r.w
	now := w.kernel.Now()
	req.done = w.newSignal("recv")
	e, matched := w.match.match(matchKey{dst: int32(r.id), src: int32(src), tag: req.tag}, false)
	if !matched {
		q := &w.match.pool[e]
		q.post, q.req = now, req
	} else if send := w.match.take(e); send.eager {
		done := send.arrival
		if now > done {
			done = now
		}
		w.fireAt(req.done, done)
	} else {
		w.completeRendezvous(src, r.id, send, pending{post: now, req: req})
	}
	if !r.q.quiet {
		r.reportP2P(RoutineIrecv, req.size, 1, now-r.q.start, src)
	}
}

// completeRendezvous schedules the handshake + transfer for a matched
// rendezvous pair from src to dst and fires both requests at arrival.
func (w *World) completeRendezvous(src, dst int, send, recv pending) {
	a, b := w.Model.NodeOf(src), w.Model.NodeOf(dst)
	cost := w.Model.P2P(a, b, send.req.size)
	both := send.post
	if recv.post > both {
		both = recv.post
	}
	ready := both + cost.Handshake
	arrival, _ := w.launchTransfer(a, b, cost, ready)
	w.fireAt(send.req.done, arrival)
	w.fireAt(recv.req.done, arrival)
}

// release ends a completed request's life: its signal and its record go
// back to the kernel and the world for the next message to reuse. Once
// released, a request reads as zero, so a second release of the same
// handle (one listed twice in a Waitall) does nothing.
func (w *World) release(rq *Request) {
	if rq.done == nil {
		return
	}
	w.kernel.Release(rq.done)
	w.reqs.Free(rq)
}

// Waitall blocks until every request completes, then frees them all. When
// reqs are exactly the queued posts, in order — every Waitall that follows
// its own Isends and Irecvs — the posts are made and waited on in one
// Hold; any other list is waited on once the queue is made.
func (r *Rank) Waitall(reqs ...*Request) {
	var start units.Seconds
	if r.queued(reqs) {
		r.wait()
		start = r.q.start
	} else {
		r.flush()
		start = r.proc.Now()
		for _, rq := range reqs {
			r.proc.WaitSignal(rq.done)
		}
	}
	if w := r.w; w.obs != nil {
		var bytes units.Bytes
		peers := slices.Grow(w.peers[:0], len(reqs))
		for _, rq := range reqs {
			bytes += rq.size
			peer, _ := rq.remote()
			peers = append(peers, peer)
		}
		w.peers = peers
		mean := units.Bytes(0)
		if len(reqs) > 0 {
			mean = bytes / units.Bytes(len(reqs))
		}
		w.obs.OnRoutine(r.id, RoutineEvent{Routine: RoutineWaitall, Bytes: mean, Count: len(reqs), Elapsed: r.proc.Now() - start, Peers: peers})
	}
	for _, rq := range reqs {
		r.w.release(rq)
	}
}

// queued reports whether reqs are the queued posts, all of them, in order.
func (r *Rank) queued(reqs []*Request) bool {
	q := r.q.head
	for _, rq := range reqs {
		if rq != q {
			return false
		}
		q = q.next
	}
	return q == nil && r.q.head != nil
}

// Send is a blocking standard-mode send.
func (r *Rank) Send(dst int, size units.Bytes, tag int) {
	peer := r.to(dst)
	r.flush()
	start := r.proc.Now()
	req := r.enqueue(peer, size, tag)
	r.q.quiet = true
	r.wait()
	r.reportP2P(RoutineSend, size, 1, r.proc.Now()-start, dst)
	r.w.release(req)
}

// Recv is a blocking receive.
func (r *Rank) Recv(src int, size units.Bytes, tag int) {
	peer := r.from(src)
	r.flush()
	start := r.proc.Now()
	req := r.enqueue(peer, size, tag)
	r.q.quiet = true
	r.wait()
	r.reportP2P(RoutineRecv, size, 1, r.proc.Now()-start, src)
	r.w.release(req)
}

// Sendrecv is a combined blocking exchange.
func (r *Rank) Sendrecv(dst int, sendSize units.Bytes, src int, recvSize units.Bytes, tag int) {
	to, from := r.to(dst), r.from(src)
	r.flush()
	start := r.proc.Now()
	sreq := r.enqueue(to, sendSize, tag)
	rreq := r.enqueue(from, recvSize, tag)
	r.q.quiet = true
	r.wait()
	r.reportP2P(RoutineSendrecv, sendSize, 2, r.proc.Now()-start, dst, src)
	r.w.release(sreq)
	r.w.release(rreq)
}

// --- collectives ----------------------------------------------------------

// collective implements the synchronizing collective template: enter, wait
// for everyone, pay the algorithm cost from the last arrival, leave
// together.
func (r *Rank) collective(rt Routine, size units.Bytes, cost units.Seconds) {
	w := r.w
	r.flush()
	start := r.proc.Now()
	seq := r.collSeq
	r.collSeq++

	op := &w.colls[seq&1]
	if op.done == nil {
		*op = collOp{routine: rt, size: size, done: w.newSignal("coll")}
	}
	if op.routine != rt {
		panic(fmt.Sprintf("mpi: collective mismatch at seq %d: rank %d called %s, others %s",
			seq, r.id, rt, op.routine))
	}
	op.arrived++
	if t := r.proc.Now(); t > op.last {
		op.last = t
	}
	done := op.done
	if op.arrived == w.size {
		w.fireAt(done, op.last+cost)
		*op = collOp{}
	}
	r.proc.WaitSignal(done)
	r.report(rt, size, 1, r.proc.Now()-start)
}

// Bcast broadcasts size bytes from root to all ranks.
func (r *Rank) Bcast(root int, size units.Bytes) {
	_ = root // synchronizing model: root identity does not change the cost
	r.collective(RoutineBcast, size, r.w.Model.Bcast(size, r.w.size))
}

// Reduce combines size bytes from all ranks at root.
func (r *Rank) Reduce(root int, size units.Bytes) {
	_ = root
	r.collective(RoutineReduce, size, r.w.Model.Reduce(size, r.w.size))
}

// Allreduce combines and redistributes size bytes.
func (r *Rank) Allreduce(size units.Bytes) {
	r.collective(RoutineAllreduce, size, r.w.Model.Allreduce(size, r.w.size))
}
