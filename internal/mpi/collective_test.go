package mpi

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/netmodel"
	"repro/internal/units"
)

// The collectives only the simulator's tests call: no application runs
// them, so no IMB table prices them.
const (
	RoutineAllgather Routine = "MPI_Allgather"
	RoutineAlltoall  Routine = "MPI_Alltoall"
	RoutineBarrier   Routine = "MPI_Barrier"
)

// Allgather gathers size bytes from every rank to all ranks.
func (r *Rank) Allgather(size units.Bytes) {
	r.collective(RoutineAllgather, size, r.w.Model.Allgather(size, r.w.size))
}

// Alltoall exchanges size bytes between every rank pair.
func (r *Rank) Alltoall(size units.Bytes) {
	r.collective(RoutineAlltoall, size, r.w.Model.Alltoall(size, r.w.size))
}

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() {
	r.collective(RoutineBarrier, 0, r.w.Model.Barrier(r.w.size))
}

// TestCollectivesAreClosedForm is the oracle behind IMB's collective cells,
// which imb fills from netmodel's formulas instead of simulating: on a fresh
// world with every rank starting together, four back-to-back calls of a
// collective take exactly four times Model's cost, bit for bit, on every
// machine at rank counts across one node, a partial last node and many
// nodes, at every size of IMB's default grid. If a collective ever gains
// skew or contention, this fails, and imb's collective cells must go back
// to being simulated.
func TestCollectivesAreClosedForm(t *testing.T) {
	const iterations = 4                   // as imb's
	sizes := units.Pow2Sizes(4, units.MiB) // imb.DefaultSizes
	for _, name := range arch.Names() {
		m := arch.MustGet(name)
		for _, ranks := range []int{2, 3, 4, 8, 13, 16, 32, 64, 128} {
			if ranks > m.TotalCores {
				continue
			}
			md := netmodel.New(m, ranks) // as imb's tables price them
			check := func(name string, size units.Bytes, want units.Seconds, op func(r *Rank)) {
				t.Helper()
				w, err := NewWorld(m, ranks)
				if err != nil {
					t.Fatal(err)
				}
				el, err := w.Run(func(r *Rank) {
					for i := 0; i < iterations; i++ {
						op(r)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := el / iterations; got != want {
					t.Errorf("%s@%d %s at %d B: %v per op simulated, closed form %v", m.Name, ranks, name, size, got, want)
				}
			}
			for _, size := range sizes {
				check("Bcast", size, md.Bcast(size, ranks), func(r *Rank) { r.Bcast(0, size) })
				check("Reduce", size, md.Reduce(size, ranks), func(r *Rank) { r.Reduce(0, size) })
				check("Allreduce", size, md.Allreduce(size, ranks), func(r *Rank) { r.Allreduce(size) })
				check("Allgather", size, md.Allgather(size, ranks), func(r *Rank) { r.Allgather(size) })
				check("Alltoall", size, md.Alltoall(size, ranks), func(r *Rank) { r.Alltoall(size) })
			}
			check("Barrier", 0, md.Barrier(ranks), func(r *Rank) { r.Barrier() })
		}
	}
}
