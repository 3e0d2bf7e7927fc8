// Package mpiprof is the MPI profiling library of the simulation: an
// mpi.Observer that builds the paper's per-task MPI profile (§2.2):
//
//  1. a summary of all MPI routines called, with aggregate timing;
//  2. the message-size distribution per routine (calls and aggregate time
//     per size);
//  3. the compute/communication breakdown of each task's execution time.
//
// The paper's profiler cost the application at most 0.05 % of its runtime;
// this one costs nothing in simulated time (observation is outside the
// virtual clock) and its host-time overhead is measured by a bench.
//
// The profiler accumulates job-wide: it allocates per (routine, message
// size) key, not per rank or per event. Only the floats whose summation
// order the profile must reproduce are kept per rank — each task's compute
// and communication time, and each key's elapsed time — and Profile sums
// them in rank order once, when it freezes the result. A key's peer
// offsets count into a dense column, one counter per ring distance
// 0..ranks/2; per-rank and offset columns are carved from slabs of up to
// sixteen.
//
// A rank's calls between two computes — a step — repeat step after step,
// so from its second step on the profiler keeps the keys of each rank's
// last step, its trace, and a cursor into it that a compute rewinds. An
// event is nearly always the key at its cursor, and checking that is one
// comparison. Only an event that is not — a first sighting, or a step that
// differs from the rank's last — is looked up, in one open-addressed
// (routine, size) index per profiler, and written into the trace at the
// cursor. So a steady-state event allocates nothing, hashes nothing and
// scans nothing.
package mpiprof

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/mpi"
	"repro/internal/units"
)

// OffsetCount is one bin of a peer-offset histogram.
type OffsetCount struct {
	Offset int // wrapped ring distance |peer − rank|
	Count  int // messages at that distance
}

// SizeEntry aggregates calls of one routine at one message size across
// the job's tasks.
type SizeEntry struct {
	Bytes    units.Bytes
	Calls    int
	Messages int // requests involved (Waitall counts each waited request)
	Elapsed  units.Seconds
	// Offsets histograms the ring distance |peer − rank| (wrapped) of the
	// messages — the communication pattern — in ascending Offset order. A
	// projection combines it with a target machine's node geometry to
	// split intra-node from inter-node traffic.
	Offsets []OffsetCount
}

// RoutineProfile aggregates one routine across the job's tasks.
type RoutineProfile struct {
	Routine mpi.Routine
	Sizes   []SizeEntry // ascending Bytes
	Calls   int
	Elapsed units.Seconds
}

// TaskProfile is one rank's compute/communication split.
type TaskProfile struct {
	Rank    int
	Compute units.Seconds
	Comm    units.Seconds
}

// Total is the task's profiled busy time.
func (tp *TaskProfile) Total() units.Seconds { return tp.Compute + tp.Comm }

// Profiler is the mpi.Observer that accumulates the job profile. Feed it
// no events after Profile.
type Profiler struct {
	tasks    []TaskProfile
	cursors  []cursor        // per rank
	traced   int             // ranks with a trace
	routines []routineAcc    // in first-sighting order
	sizes    []sizeAcc       // in first-sighting order
	index    []int32         // open-addressed (routine, bytes) → sizes slot + 1, 0 if empty; len a power of two
	shift    uint            // 64 - log2(len(index))
	slab     []units.Seconds // backs the next per-rank columns
	offSlab  []uint32        // backs the next offset columns
	keySlab  []int32         // backs the next traces
}

type routineAcc struct {
	routine mpi.Routine
	calls   int
	elapsed []units.Seconds // per rank, each in event order
}

type sizeAcc struct {
	routine  int32 // routines slot
	bytes    units.Bytes
	calls    int
	messages int
	elapsed  []units.Seconds // per rank, each in event order
	// offsets[d] counts the messages at wrapped ring distance d, for d in
	// [0, ranks/2]; nil until the key's first peer. Four bytes a counter
	// hold 2³² messages per (key, distance), more than a simulated job
	// sends, at half the bytes of an int column.
	offsets []uint32
}

// slabColumns is the most per-rank (or offset) columns one slab
// allocation backs.
const slabColumns = 16

// cursor is where a rank is in its step.
type cursor struct {
	// trace holds the sizes slot + 1 of each event of the rank's last
	// step, 0 where none has been seen; nil until a step of the rank's
	// ends within traceMax calls, when it is made as long as that step.
	trace []int32
	pos   int // events since the rank's last compute
}

const (
	// indexSlots is the size of a profiler's first index: a NAS-MZ job
	// at few ranks has a dozen keys or so, and the index doubles from
	// here.
	indexSlots = 16
	// traceMax is the longest step a rank's trace is made for. A NAS-MZ
	// rank calls one routine a message and one Waitall a step, a few
	// hundred calls at most; a rank that computes only after thousands of
	// calls is looked up event by event until a step of its ends within
	// this, rather than have a trace that long made for every rank.
	traceMax = 1024
)

// New creates a profiler for a job of the given rank count.
func New(ranks int) *Profiler {
	p := &Profiler{tasks: make([]TaskProfile, ranks), cursors: make([]cursor, ranks)}
	for i := range p.tasks {
		p.tasks[i].Rank = i
	}
	return p
}

// column returns a zeroed per-rank column carved from the slab.
func (p *Profiler) column() []units.Seconds {
	n := len(p.tasks)
	if len(p.slab) < n {
		p.slab = make([]units.Seconds, slabColumns*n)
	}
	c := p.slab[:n:n]
	p.slab = p.slab[n:]
	return c
}

// offsetColumn returns a zeroed offset histogram, one counter per ring
// distance 0..ranks/2, carved from its own slab. A slab backs as many
// columns as the profiler has keys, up to slabColumns, so a profile with a
// handful of point-to-point keys strands few columns.
func (p *Profiler) offsetColumn() []uint32 {
	n := len(p.tasks)/2 + 1
	if len(p.offSlab) < n {
		p.offSlab = make([]uint32, min(slabColumns, len(p.sizes))*n)
	}
	c := p.offSlab[:n:n]
	p.offSlab = p.offSlab[n:]
	return c
}

// OnCompute implements mpi.Observer.
func (p *Profiler) OnCompute(rank int, dt units.Seconds) {
	p.tasks[rank].Compute += dt
	c := &p.cursors[rank]
	if c.trace == nil && c.pos > 0 && c.pos <= traceMax {
		c.trace = p.traceColumn(c.pos)
	}
	c.pos = 0
}

// traceColumn returns a zeroed trace of n events carved from a slab. A
// slab is sized for every rank still without a trace to take one of n:
// the ranks of an SPMD job step alike.
func (p *Profiler) traceColumn(n int) []int32 {
	if len(p.keySlab) < n {
		p.keySlab = make([]int32, n*(len(p.tasks)-p.traced))
	}
	p.traced++
	c := p.keySlab[:n:n]
	p.keySlab = p.keySlab[n:]
	return c
}

// OnRoutine implements mpi.Observer.
func (p *Profiler) OnRoutine(rank int, ev mpi.RoutineEvent) {
	p.tasks[rank].Comm += ev.Elapsed
	sa := &p.sizes[p.slot(rank, ev.Routine, ev.Bytes)]
	ra := &p.routines[sa.routine]
	ra.calls++
	ra.elapsed[rank] += ev.Elapsed
	sa.calls++
	sa.messages += ev.Count
	sa.elapsed[rank] += ev.Elapsed
	if len(ev.Peers) > 0 && sa.offsets == nil {
		sa.offsets = p.offsetColumn()
	}
	for _, peer := range ev.Peers {
		off := peer - rank
		if off < 0 {
			off = -off
		}
		if wrapped := len(p.tasks) - off; wrapped < off {
			off = wrapped
		}
		sa.offsets[off]++
	}
}

// slot is the sizes slot of an event of rt at bytes on rank: the key at
// the rank's cursor when that is (rt, bytes), else the index's, added at
// its first sighting and written into the trace at the cursor.
func (p *Profiler) slot(rank int, rt mpi.Routine, bytes units.Bytes) int {
	c := &p.cursors[rank]
	pos := c.pos
	c.pos++
	if pos < len(c.trace) {
		if k := int(c.trace[pos]) - 1; k >= 0 && p.is(k, rt, bytes) {
			return k
		}
		// A step may lack a call the trace has, such as a periodic
		// check: the rank's cursor then skips it for the rest of the step.
		if pos+1 < len(c.trace) {
			if k := int(c.trace[pos+1]) - 1; k >= 0 && p.is(k, rt, bytes) {
				c.pos++
				return k
			}
		}
	}
	si := p.lookup(p.routineSlot(rt), bytes)
	if pos < len(c.trace) {
		c.trace[pos] = int32(si + 1)
	}
	return si
}

// is reports whether sizes slot si is the key (rt, bytes).
func (p *Profiler) is(si int, rt mpi.Routine, bytes units.Bytes) bool {
	sa := &p.sizes[si]
	return sa.bytes == bytes && p.routines[sa.routine].routine == rt
}

// lookup is the sizes slot of (routine slot ri, bytes), added at its first
// sighting. The index is open-addressed with linear probing and at most
// half full.
func (p *Profiler) lookup(ri int32, bytes units.Bytes) int {
	if p.index == nil {
		p.resize(indexSlots)
	}
	i := p.find(ri, bytes)
	if e := p.index[i]; e != 0 {
		return int(e) - 1
	}
	si := len(p.sizes)
	p.sizes = append(p.sizes, sizeAcc{routine: ri, bytes: bytes, elapsed: p.column()})
	p.index[i] = int32(si + 1)
	if 2*len(p.sizes) > len(p.index) {
		p.resize(2 * len(p.index))
	}
	return si
}

// find returns the index slot holding (ri, bytes), or the empty slot that
// ends its probe run.
func (p *Profiler) find(ri int32, bytes units.Bytes) int {
	mask := len(p.index) - 1
	i := int((uint64(bytes)<<4 ^ uint64(ri)) * 0x9e3779b97f4a7c15 >> p.shift)
	for e := p.index[i]; e != 0; e = p.index[i] {
		if sa := &p.sizes[e-1]; sa.routine == ri && sa.bytes == bytes {
			break
		}
		i = (i + 1) & mask
	}
	return i
}

// resize gives the index n slots, a power of two, and re-enters every key.
func (p *Profiler) resize(n int) {
	p.index, p.shift = make([]int32, n), uint(64-bits.TrailingZeros(uint(n)))
	for si := range p.sizes {
		p.index[p.find(p.sizes[si].routine, p.sizes[si].bytes)] = int32(si + 1)
	}
}

// routineSlot is rt's routines slot, added at its first sighting. A job
// calls a handful of routines, and only an event its rank's trace did not
// expect scans them.
func (p *Profiler) routineSlot(rt mpi.Routine) int32 {
	for i := range p.routines {
		if p.routines[i].routine == rt {
			return int32(i)
		}
	}
	p.routines = append(p.routines, routineAcc{routine: rt, elapsed: p.column()})
	return int32(len(p.routines) - 1)
}

// sum adds a per-rank column in rank order.
func sum(col []units.Seconds) units.Seconds {
	var s units.Seconds
	for _, v := range col {
		s += v
	}
	return s
}

// Profile freezes the accumulated data into the job-level profile: the
// routine list in (class, name) order, one aggregate per routine with its
// sizes ascending, each size's offsets ascending, and every elapsed time
// summed across tasks in rank order.
func (p *Profiler) Profile(app, machine string, makespan units.Seconds) *Profile {
	// order lists the routine slots in (class, name) order; pos[slot] is a
	// slot's place in it. Sizes sort by (routine place, bytes).
	order := make([]int, len(p.routines))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := p.routines[a].routine, p.routines[b].routine
		if c := cmp.Compare(mpi.ClassOf(ra), mpi.ClassOf(rb)); c != 0 {
			return c
		}
		return cmp.Compare(ra, rb)
	})
	pos := make([]int, len(order))
	for i, slot := range order {
		pos[slot] = i
	}
	sizeOrder := make([]int, len(p.sizes))
	for i := range sizeOrder {
		sizeOrder[i] = i
	}
	slices.SortFunc(sizeOrder, func(a, b int) int {
		sa, sb := &p.sizes[a], &p.sizes[b]
		if c := cmp.Compare(pos[sa.routine], pos[sb.routine]); c != 0 {
			return c
		}
		return cmp.Compare(sa.bytes, sb.bytes)
	})

	pf := &Profile{
		App: app, Machine: machine, Makespan: makespan, Tasks: p.tasks,
		routines: make([]mpi.Routine, len(order)),
		aggs:     make([]RoutineProfile, len(order)),
		perRank:  make([][]units.Seconds, len(order)),
	}
	for i, slot := range order {
		ra := &p.routines[slot]
		pf.routines[i] = ra.routine
		pf.aggs[i] = RoutineProfile{Routine: ra.routine, Calls: ra.calls, Elapsed: sum(ra.elapsed)}
		pf.perRank[i] = ra.elapsed
	}
	// A routine's sizes are contiguous in sizeOrder, so each aggregate's
	// Sizes is a window of one backing slice, extended entry by entry; the
	// non-zero bins of every offset column compact, already ascending, into
	// one more.
	bins := 0
	for i := range p.sizes {
		for _, n := range p.sizes[i].offsets {
			if n != 0 {
				bins++
			}
		}
	}
	offsets := make([]OffsetCount, 0, bins)
	entries := make([]SizeEntry, len(sizeOrder))
	for i, slot := range sizeOrder {
		sa := &p.sizes[slot]
		first := len(offsets)
		for off, n := range sa.offsets {
			if n != 0 {
				offsets = append(offsets, OffsetCount{Offset: off, Count: int(n)})
			}
		}
		entries[i] = SizeEntry{
			Bytes: sa.bytes, Calls: sa.calls, Messages: sa.messages,
			Elapsed: sum(sa.elapsed),
		}
		if len(offsets) > first {
			entries[i].Offsets = offsets[first:len(offsets):len(offsets)]
		}
		agg := &pf.aggs[pos[sa.routine]]
		agg.Sizes = entries[i-len(agg.Sizes) : i+1 : i+1]
	}
	return pf
}

// Profile is the complete job profile: what the paper's projection pipeline
// consumes from the base machine. It is read-only once built.
type Profile struct {
	App      string
	Machine  string
	Makespan units.Seconds
	Tasks    []TaskProfile

	routines []mpi.Routine     // (class, name) order
	aggs     []RoutineProfile  // aligned with routines
	perRank  [][]units.Seconds // aligned with routines: each rank's elapsed
}

// Ranks returns the task count.
func (pf *Profile) Ranks() int { return len(pf.Tasks) }

// MeanCompute is the mean per-task compute time.
func (pf *Profile) MeanCompute() units.Seconds {
	var s units.Seconds
	for i := range pf.Tasks {
		s += pf.Tasks[i].Compute
	}
	return s / units.Seconds(len(pf.Tasks))
}

// MeanComm is the mean per-task communication time.
func (pf *Profile) MeanComm() units.Seconds {
	var s units.Seconds
	for i := range pf.Tasks {
		s += pf.Tasks[i].Comm
	}
	return s / units.Seconds(len(pf.Tasks))
}

// CommFraction is the job-wide share of busy time spent in MPI.
func (pf *Profile) CommFraction() float64 {
	var comm, total units.Seconds
	for i := range pf.Tasks {
		comm += pf.Tasks[i].Comm
		total += pf.Tasks[i].Total()
	}
	if total == 0 {
		return 0
	}
	return comm / total
}

// Routines lists every routine appearing in any task, in deterministic
// (class, name) order. The slice is shared: callers must not modify it.
func (pf *Profile) Routines() []mpi.Routine { return pf.routines }

// slot is rt's index in Routines, or -1.
func (pf *Profile) slot(rt mpi.Routine) int {
	return slices.Index(pf.routines, rt)
}

// RoutineAggregate is a routine's profile summed across all tasks, frozen
// when the profile was built. The aggregate is shared and read-only:
// callers must not modify it or its slices. An absent routine aggregates
// to an empty profile, not nil.
func (pf *Profile) RoutineAggregate(rt mpi.Routine) *RoutineProfile {
	if i := pf.slot(rt); i >= 0 {
		return &pf.aggs[i]
	}
	return &RoutineProfile{Routine: rt}
}

// RoutineShare is a routine's share of total busy time, in percent — the
// quantity Table 1 reports per routine.
func (pf *Profile) RoutineShare(rt mpi.Routine) float64 {
	var total units.Seconds
	for i := range pf.Tasks {
		total += pf.Tasks[i].Total()
	}
	if total == 0 {
		return 0
	}
	return 100 * pf.RoutineAggregate(rt).Elapsed / total
}

// ClassElapsed sums MPI time per routine class across tasks: routines in
// Routines() order, each one's tasks in rank order, so that the per-class
// float accumulation never depends on map iteration order.
func (pf *Profile) ClassElapsed() map[mpi.Class]units.Seconds {
	out := map[mpi.Class]units.Seconds{}
	for i, rt := range pf.routines {
		cls := mpi.ClassOf(rt)
		for _, e := range pf.perRank[i] {
			out[cls] += e
		}
	}
	return out
}

// String renders the profile in the three-section layout of §2.2.
func (pf *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPI profile: %s on %s, %d tasks, makespan %s\n",
		pf.App, pf.Machine, pf.Ranks(), units.FormatSeconds(pf.Makespan))
	fmt.Fprintf(&b, "compute %s (%.1f%%), communication %s (%.1f%%)\n",
		units.FormatSeconds(pf.MeanCompute()), 100*(1-pf.CommFraction()),
		units.FormatSeconds(pf.MeanComm()), 100*pf.CommFraction())
	fmt.Fprintf(&b, "%-14s %-10s %10s %12s %12s\n", "routine", "class", "calls", "elapsed", "share")
	for i, rt := range pf.routines {
		agg := &pf.aggs[i]
		fmt.Fprintf(&b, "%-14s %-10s %10d %12s %11.3f%%\n",
			rt, mpi.ClassOf(rt), agg.Calls, units.FormatSeconds(agg.Elapsed), pf.RoutineShare(rt))
		for _, se := range agg.Sizes {
			fmt.Fprintf(&b, "    %-12s %8d calls %12s\n",
				units.FormatBytes(se.Bytes), se.Calls, units.FormatSeconds(se.Elapsed))
		}
	}
	return b.String()
}
