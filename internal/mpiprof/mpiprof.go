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
// sixteen. An event finds its routine by scanning the handful a
// job calls and its size in that routine's map, so a steady-state event
// allocates nothing and hashes one integer.
package mpiprof

import (
	"cmp"
	"fmt"
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
	routines []routineAcc    // in first-sighting order, found by scanning
	sizes    []sizeAcc       // in first-sighting order
	slab     []units.Seconds // backs the next per-rank columns
	offSlab  []uint32        // backs the next offset columns
}

type routineAcc struct {
	routine mpi.Routine
	calls   int
	elapsed []units.Seconds     // per rank, each in event order
	keys    map[units.Bytes]int // message size → sizes slot
}

type sizeAcc struct {
	routine  int // routines slot
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

// New creates a profiler for a job of the given rank count.
func New(ranks int) *Profiler {
	p := &Profiler{tasks: make([]TaskProfile, ranks)}
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
}

// OnRoutine implements mpi.Observer.
func (p *Profiler) OnRoutine(rank int, ev mpi.RoutineEvent) {
	p.tasks[rank].Comm += ev.Elapsed
	ri := p.routineSlot(ev.Routine)
	ra := &p.routines[ri]
	ra.calls++
	ra.elapsed[rank] += ev.Elapsed
	si, ok := ra.keys[ev.Bytes]
	if !ok {
		si = len(p.sizes)
		ra.keys[ev.Bytes] = si
		p.sizes = append(p.sizes, sizeAcc{routine: ri, bytes: ev.Bytes, elapsed: p.column()})
	}
	sa := &p.sizes[si]
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

// routineSlot is rt's routines slot, added at its first sighting. A job
// calls a handful of routines, so a scan beats hashing the name.
func (p *Profiler) routineSlot(rt mpi.Routine) int {
	for i := range p.routines {
		if p.routines[i].routine == rt {
			return i
		}
	}
	p.routines = append(p.routines, routineAcc{routine: rt, elapsed: p.column(), keys: map[units.Bytes]int{}})
	return len(p.routines) - 1
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
