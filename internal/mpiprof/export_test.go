package mpiprof

import (
	"repro/internal/mpi"
	"repro/internal/units"
)

// RankElapsed is one task's time inside routine rt (0 if it never called
// it).
func (pf *Profile) RankElapsed(rank int, rt mpi.Routine) units.Seconds {
	if i := pf.slot(rt); i >= 0 {
		return pf.perRank[i][rank]
	}
	return 0
}
