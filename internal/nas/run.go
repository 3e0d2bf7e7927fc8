package nas

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/mpi"
	"repro/internal/mpiprof"
	"repro/internal/rng"
	"repro/internal/units"
)

// RunResult is one full execution of a benchmark instance on a machine:
// the MPI profile (what the paper's profiler records) and the makespan
// (the "measured" runtime SWAPP's projections are validated against).
type RunResult struct {
	Config   Config
	Machine  string
	Profile  *mpiprof.Profile
	Makespan units.Seconds
}

// Run executes the instance on machine m through the discrete-event
// simulator with the MPI profiler attached: per-rank compute times come
// from the hardware-counter model, boundary exchanges and collectives run
// through the MPI layer.
func (inst *Instance) Run(m *arch.Machine) (*RunResult, error) {
	prof := mpiprof.New(inst.Cfg.Ranks)
	makespan, err := inst.RunObserved(m, prof)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Config:   inst.Cfg,
		Machine:  m.Name,
		Profile:  prof.Profile(inst.Cfg.String(), m.Name, makespan),
		Makespan: makespan,
	}, nil
}

// RunObserved executes the instance on machine m with obs (if not nil) as
// the world's observer, and returns the makespan. Run is RunObserved with
// the profiler as obs; with obs nil it is the baseline for measuring the
// profiler's host-side overhead (the paper's §5 claim).
func (inst *Instance) RunObserved(m *arch.Machine, obs mpi.Observer) (units.Seconds, error) {
	ranks := inst.Cfg.Ranks
	world, err := mpi.NewWorld(m, ranks)
	if err != nil {
		return 0, err
	}
	if obs != nil {
		world.SetObserver(obs)
	}

	// Per-rank per-step compute time on this machine: one process per
	// core, and every busy core of a node contends for its bandwidth.
	active := min(m.CoresPerNode, ranks)
	stepTime := make([]units.Seconds, ranks)
	for r := 0; r < ranks; r++ {
		c, err := hpm.Run(inst.rankStepSignature(r), hpm.Config{
			Machine:            m,
			Mode:               hpm.ST,
			ActiveTasksPerNode: active,
		})
		if err != nil {
			return 0, fmt.Errorf("nas: compute model for rank %d: %w", r, err)
		}
		stepTime[r] = c.Runtime
	}

	spec := inst.Spec
	jitter := m.OSJitterSigma
	// The per-rank key is osjitter|<config>|<machine>|<rank>; all but the
	// rank is formatted once per run.
	jitterKey := "osjitter|" + inst.Cfg.String() + "|" + m.Name + "|"
	// One request slice per rank, all carved from one slab and refilled
	// every step: Waitall keeps neither the slice nor, once it returns,
	// the requests.
	posts := 0
	for id := range inst.sends {
		posts += len(inst.recvs[id]) + len(inst.sends[id])
	}
	// A step's posts are half sends, half receives, and one of each pair
	// waits for the other: the match table is sized for that many once.
	world.Reserve(posts / 2)
	slab := make([]*mpi.Request, posts)
	reqLists := make([][]*mpi.Request, ranks)
	for id := range reqLists {
		n := len(inst.recvs[id]) + len(inst.sends[id])
		reqLists[id], slab = slab[:0:n], slab[n:]
	}
	makespan, err := world.Run(func(r *mpi.Rank) {
		id := r.ID()
		// Per-rank OS-noise stream: every timestep's compute wiggles a
		// little, turning boundary synchronization into WaitTime.
		var idBuf [20]byte
		noise := rng.New(jitterKey, string(strconv.AppendInt(idBuf[:0], int64(id), 10)))
		// Initialization: parameter broadcast from rank 0.
		for i := 0; i < 3; i++ {
			r.Bcast(0, 24)
		}
		reqs := reqLists[id]
		for step := 0; step < spec.Steps; step++ {
			// Boundary exchange: post receives, fire sends, wait.
			reqs = reqs[:0]
			for _, fm := range inst.recvs[id] {
				reqs = append(reqs, r.Irecv(fm.peer, fm.bytes, fm.tag))
			}
			for _, fm := range inst.sends[id] {
				reqs = append(reqs, r.Isend(fm.peer, fm.bytes, fm.tag))
			}
			r.Waitall(reqs...)
			// Zone solves, with OS jitter.
			dt := stepTime[id]
			if jitter > 0 {
				f := 1 + noise.Normal(0, jitter)
				if f < 0.5 {
					f = 0.5
				}
				dt *= f
			}
			r.Compute(dt)
			// Periodic convergence check.
			if (step+1)%spec.CheckEvery == 0 {
				r.Reduce(0, 40)
			}
		}
		// Verification: residual norms to rank 0, verdict broadcast back.
		r.Reduce(0, 40)
		r.Bcast(0, 8)
	})
	if err != nil {
		return 0, fmt.Errorf("nas: %s on %s: %w", inst.Cfg, m.Name, err)
	}
	return makespan, nil
}

// Routines lists the MPI routines a rank of RunObserved's program calls,
// in name order. They are the same for every benchmark and class.
func Routines() []mpi.Routine {
	return []mpi.Routine{mpi.RoutineBcast, mpi.RoutineIrecv, mpi.RoutineIsend, mpi.RoutineReduce, mpi.RoutineWaitall}
}

// MessageSpan is the smallest and largest point-to-point message any
// instance sends, over every benchmark, class and rank count: a zone
// face's ghost layer. A face is sent whenever its two zones sit on
// different ranks, so the span is that of every face of every zone — what
// one zone per rank sends — and zone geometry alone fixes it. A Waitall's
// mean message size lies inside it too.
func MessageSpan() (lo, hi units.Bytes) { return spanLo, spanHi }

var spanLo, spanHi = messageSpan()

func messageSpan() (lo, hi units.Bytes) {
	lo = math.MaxInt64
	for _, b := range Benchmarks() {
		for _, c := range Classes() {
			spec, err := SpecFor(b, c)
			if err != nil {
				panic(err)
			}
			inst := &Instance{Spec: spec}
			inst.buildZones()
			inst.Owner = make([]int, len(inst.Zones))
			for zi := range inst.Owner {
				inst.Owner[zi] = zi
			}
			inst.forEachFace(func(_, _ int, m faceMsg) {
				lo, hi = min(lo, m.bytes), max(hi, m.bytes)
			})
		}
	}
	return lo, hi
}

// Run is a convenience wrapper: lay out and execute cfg on machine m.
func Run(cfg Config, m *arch.Machine) (*RunResult, error) {
	inst, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return inst.Run(m)
}
