package mpiprof_test

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mpi"
	"repro/internal/units"
)

// refProfiler is the profiler as it stood before it accumulated job-wide:
// a map per rank, per (rank, routine) and per (rank, routine, size), with
// every aggregate rebuilt on each call. It is the oracle the job-wide
// profiler is held to, bit for bit (TestProfilerMatchesReference).
type refProfiler struct {
	tasks []*refTask
}

type refSize struct {
	Bytes    units.Bytes
	Calls    int
	Messages int
	Elapsed  units.Seconds
	Offsets  map[int]int
}

type refRoutine struct {
	Routine mpi.Routine
	Sizes   map[units.Bytes]*refSize
	Calls   int
	Elapsed units.Seconds
}

func (rp *refRoutine) sortedSizes() []units.Bytes {
	out := make([]units.Bytes, 0, len(rp.Sizes))
	for s := range rp.Sizes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type refTask struct {
	Rank     int
	Compute  units.Seconds
	Comm     units.Seconds
	Routines map[mpi.Routine]*refRoutine
}

func (tp *refTask) total() units.Seconds { return tp.Compute + tp.Comm }

func newRef(ranks int) *refProfiler {
	p := &refProfiler{tasks: make([]*refTask, ranks)}
	for i := range p.tasks {
		p.tasks[i] = &refTask{Rank: i, Routines: map[mpi.Routine]*refRoutine{}}
	}
	return p
}

func (p *refProfiler) OnCompute(rank int, dt units.Seconds) {
	p.tasks[rank].Compute += dt
}

func (p *refProfiler) OnRoutine(rank int, ev mpi.RoutineEvent) {
	tp := p.tasks[rank]
	tp.Comm += ev.Elapsed
	rp := tp.Routines[ev.Routine]
	if rp == nil {
		rp = &refRoutine{Routine: ev.Routine, Sizes: map[units.Bytes]*refSize{}}
		tp.Routines[ev.Routine] = rp
	}
	rp.Calls++
	rp.Elapsed += ev.Elapsed
	se := rp.Sizes[ev.Bytes]
	if se == nil {
		se = &refSize{Bytes: ev.Bytes}
		rp.Sizes[ev.Bytes] = se
	}
	se.Calls++
	se.Messages += ev.Count
	se.Elapsed += ev.Elapsed
	for _, peer := range ev.Peers {
		off := peer - rank
		if off < 0 {
			off = -off
		}
		if wrapped := len(p.tasks) - off; wrapped < off {
			off = wrapped
		}
		if se.Offsets == nil {
			se.Offsets = map[int]int{}
		}
		se.Offsets[off]++
	}
}

type refProfile struct {
	App      string
	Machine  string
	Makespan units.Seconds
	Tasks    []*refTask
}

func (p *refProfiler) profile(app, machine string, makespan units.Seconds) *refProfile {
	return &refProfile{App: app, Machine: machine, Makespan: makespan, Tasks: p.tasks}
}

func (pf *refProfile) ranks() int { return len(pf.Tasks) }

func (pf *refProfile) meanCompute() units.Seconds {
	var s units.Seconds
	for _, tp := range pf.Tasks {
		s += tp.Compute
	}
	return s / units.Seconds(len(pf.Tasks))
}

func (pf *refProfile) meanComm() units.Seconds {
	var s units.Seconds
	for _, tp := range pf.Tasks {
		s += tp.Comm
	}
	return s / units.Seconds(len(pf.Tasks))
}

func (pf *refProfile) commFraction() float64 {
	var comm, total units.Seconds
	for _, tp := range pf.Tasks {
		comm += tp.Comm
		total += tp.total()
	}
	if total == 0 {
		return 0
	}
	return comm / total
}

func (pf *refProfile) routines() []mpi.Routine {
	set := map[mpi.Routine]bool{}
	for _, tp := range pf.Tasks {
		for rt := range tp.Routines {
			set[rt] = true
		}
	}
	out := make([]mpi.Routine, 0, len(set))
	for rt := range set {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := mpi.ClassOf(out[i]), mpi.ClassOf(out[j])
		if ci != cj {
			return ci < cj
		}
		return out[i] < out[j]
	})
	return out
}

func (pf *refProfile) routineAggregate(rt mpi.Routine) *refRoutine {
	agg := &refRoutine{Routine: rt, Sizes: map[units.Bytes]*refSize{}}
	for _, tp := range pf.Tasks {
		rp := tp.Routines[rt]
		if rp == nil {
			continue
		}
		agg.Calls += rp.Calls
		agg.Elapsed += rp.Elapsed
		for b, se := range rp.Sizes {
			dst := agg.Sizes[b]
			if dst == nil {
				dst = &refSize{Bytes: b}
				agg.Sizes[b] = dst
			}
			dst.Calls += se.Calls
			dst.Messages += se.Messages
			dst.Elapsed += se.Elapsed
			for off, n := range se.Offsets {
				if dst.Offsets == nil {
					dst.Offsets = map[int]int{}
				}
				dst.Offsets[off] += n
			}
		}
	}
	return agg
}

func (pf *refProfile) routineShare(rt mpi.Routine) float64 {
	var total units.Seconds
	for _, tp := range pf.Tasks {
		total += tp.total()
	}
	if total == 0 {
		return 0
	}
	return 100 * pf.routineAggregate(rt).Elapsed / total
}

func (pf *refProfile) classElapsed() map[mpi.Class]units.Seconds {
	out := map[mpi.Class]units.Seconds{}
	for _, rt := range pf.routines() {
		cls := mpi.ClassOf(rt)
		for _, tp := range pf.Tasks {
			if rp, ok := tp.Routines[rt]; ok {
				out[cls] += rp.Elapsed
			}
		}
	}
	return out
}

func (pf *refProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPI profile: %s on %s, %d tasks, makespan %s\n",
		pf.App, pf.Machine, pf.ranks(), units.FormatSeconds(pf.Makespan))
	fmt.Fprintf(&b, "compute %s (%.1f%%), communication %s (%.1f%%)\n",
		units.FormatSeconds(pf.meanCompute()), 100*(1-pf.commFraction()),
		units.FormatSeconds(pf.meanComm()), 100*pf.commFraction())
	fmt.Fprintf(&b, "%-14s %-10s %10s %12s %12s\n", "routine", "class", "calls", "elapsed", "share")
	for _, rt := range pf.routines() {
		agg := pf.routineAggregate(rt)
		fmt.Fprintf(&b, "%-14s %-10s %10d %12s %11.3f%%\n",
			rt, mpi.ClassOf(rt), agg.Calls, units.FormatSeconds(agg.Elapsed), pf.routineShare(rt))
		for _, size := range agg.sortedSizes() {
			se := agg.Sizes[size]
			fmt.Fprintf(&b, "    %-12s %8d calls %12s\n",
				units.FormatBytes(se.Bytes), se.Calls, units.FormatSeconds(se.Elapsed))
		}
	}
	return b.String()
}
