package nas

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
	"repro/internal/workload"
)

// Zone is one partition of the aggregate grid: its position in the zone
// grid and its interior extent.
type Zone struct {
	I, J       int // zone-grid coordinates
	NX, NY, NZ int // interior points
}

// Points is the zone's grid point count.
func (z Zone) Points() float64 { return float64(z.NX) * float64(z.NY) * float64(z.NZ) }

// faceMsg is one boundary-exchange message endpoint: a directed zone face
// crossing a rank boundary.
type faceMsg struct {
	peer  int         // the other rank
	bytes units.Bytes // ghost-layer payload
	tag   int         // unique per directed face
}

// Instance is a fully laid-out benchmark run: zones, ownership, per-rank
// work and exchange lists.
type Instance struct {
	Cfg  Config
	Spec *Spec

	Zones []Zone
	Owner []int // zone index → rank

	name          string        // Cfg.Name(), formatted once: every rank signature carries it
	rankInstrStep []float64     // per-rank instructions per timestep
	rankFoot      []units.Bytes // per-rank resident footprint
	sends         [][]faceMsg   // per-rank outgoing faces
	recvs         [][]faceMsg   // per-rank incoming faces
}

// New lays out a benchmark instance: zone geometry, load balancing and
// exchange lists.
func New(cfg Config) (*Instance, error) {
	spec, err := SpecFor(cfg.Bench, cfg.Class)
	if err != nil {
		return nil, err
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("nas: %s needs at least 1 rank", cfg)
	}
	if cfg.Ranks > spec.Zones() {
		return nil, fmt.Errorf("nas: %s has only %d zones; cannot use %d ranks",
			cfg.Name(), spec.Zones(), cfg.Ranks)
	}
	inst := &Instance{Cfg: cfg, Spec: spec, name: cfg.Name()}
	inst.buildZones()
	inst.balance()
	inst.buildExchanges()
	return inst, nil
}

// geometricSpans splits total into n integer spans following a geometric
// progression with overall ratio r (last/first), each at least 2.
func geometricSpans(total, n int, ratio float64) []int {
	weights := make([]float64, n)
	growth := 1.0
	if n > 1 && ratio > 1 {
		growth = math.Pow(ratio, 1/float64(n-1))
	}
	w := 1.0
	var sum float64
	for i := range weights {
		weights[i] = w
		sum += w
		w *= growth
	}
	spans := make([]int, n)
	used := 0
	for i := range spans {
		spans[i] = int(math.Round(weights[i] / sum * float64(total)))
		if spans[i] < 2 {
			spans[i] = 2
		}
		used += spans[i]
	}
	// Fix rounding drift on the largest span.
	spans[n-1] += total - used
	if spans[n-1] < 2 {
		spans[n-1] = 2
	}
	return spans
}

// buildZones lays out the zone grid with the spec's size progression.
func (inst *Instance) buildZones() {
	s := inst.Spec
	axisRatio := math.Sqrt(s.ZoneRatio) // area ratio splits across x and y
	xs := geometricSpans(s.GridX, s.ZonesX, axisRatio)
	ys := geometricSpans(s.GridY, s.ZonesY, axisRatio)
	inst.Zones = make([]Zone, 0, s.Zones())
	for j := 0; j < s.ZonesY; j++ {
		for i := 0; i < s.ZonesX; i++ {
			inst.Zones = append(inst.Zones, Zone{I: i, J: j, NX: xs[i], NY: ys[j], NZ: s.GridZ})
		}
	}
}

// balance assigns zones to ranks: largest-first greedy bin packing on zone
// work, the spirit of NPB-MZ's load balancer. Ties break deterministically
// on rank index.
func (inst *Instance) balance() {
	n := len(inst.Zones)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		za, zb := inst.Zones[order[a]], inst.Zones[order[b]]
		if za.Points() != zb.Points() {
			return za.Points() > zb.Points()
		}
		return order[a] < order[b]
	})
	load := make([]float64, inst.Cfg.Ranks)
	inst.Owner = make([]int, n)
	for _, zi := range order {
		best := 0
		for r := 1; r < len(load); r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		inst.Owner[zi] = best
		load[best] += inst.Zones[zi].Points()
	}
	inst.rankInstrStep = make([]float64, inst.Cfg.Ranks)
	inst.rankFoot = make([]units.Bytes, inst.Cfg.Ranks)
	for zi, z := range inst.Zones {
		r := inst.Owner[zi]
		inst.rankInstrStep[r] += z.Points() * inst.Spec.InstrPerPoint
		inst.rankFoot[r] += units.Bytes(z.Points() * inst.Spec.BytesPerPoint)
	}
}

// zoneAt maps zone-grid coordinates (periodic) to the zone index.
func (inst *Instance) zoneAt(i, j int) int {
	s := inst.Spec
	i = ((i % s.ZonesX) + s.ZonesX) % s.ZonesX
	j = ((j % s.ZonesY) + s.ZonesY) % s.ZonesY
	return j*s.ZonesX + i
}

// buildExchanges derives the per-rank send/recv lists: one message per
// directed zone face whose neighbour lives on another rank. It walks the
// faces twice — once to count each rank's messages, once to fill — so each
// direction's lists share one exactly sized backing slice.
func (inst *Instance) buildExchanges() {
	ranks := inst.Cfg.Ranks
	nsend, nrecv := make([]int, ranks), make([]int, ranks)
	var total int
	inst.forEachFace(func(src, dst int, _ faceMsg) {
		nsend[src]++
		nrecv[dst]++
		total++
	})
	inst.sends = carve(nsend, make([]faceMsg, total))
	inst.recvs = carve(nrecv, make([]faceMsg, total))
	inst.forEachFace(func(src, dst int, m faceMsg) {
		inst.sends[src] = append(inst.sends[src], m)
		m.peer = src
		inst.recvs[dst] = append(inst.recvs[dst], m)
	})
}

// carve splits backing into empty per-rank lists of capacity counts[r].
func carve(counts []int, backing []faceMsg) [][]faceMsg {
	lists := make([][]faceMsg, len(counts))
	for r, n := range counts {
		lists[r], backing = backing[:0:n], backing[n:]
	}
	return lists
}

// forEachFace calls fn for every directed zone face that crosses a rank
// boundary, in zone then direction order, with the message as its sender
// lists it (peer = dst).
func (inst *Instance) forEachFace(fn func(src, dst int, m faceMsg)) {
	s := inst.Spec
	wordBytes := units.Bytes(s.GhostVars * s.WordBytes)
	for zi, z := range inst.Zones {
		dirs := [4]struct {
			di, dj int
			area   float64 // boundary points
		}{
			{+1, 0, float64(z.NY * z.NZ)}, // east
			{-1, 0, float64(z.NY * z.NZ)}, // west
			{0, +1, float64(z.NX * z.NZ)}, // north
			{0, -1, float64(z.NX * z.NZ)}, // south
		}
		for d, dir := range dirs {
			ni := inst.zoneAt(z.I+dir.di, z.J+dir.dj)
			if ni == zi {
				continue // degenerate periodic self-neighbour
			}
			src, dst := inst.Owner[zi], inst.Owner[ni]
			if src == dst {
				continue // local copy, no MPI
			}
			fn(src, dst, faceMsg{peer: dst, bytes: units.Bytes(dir.area) * wordBytes, tag: zi*4 + d})
		}
	}
}

// Imbalance is the max/mean ratio of per-rank work: 1 is perfect balance.
func (inst *Instance) Imbalance() float64 {
	var max, sum float64
	for _, w := range inst.rankInstrStep {
		if w > max {
			max = w
		}
		sum += w
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(inst.rankInstrStep)))
}

// MessagesPerStep is the total MPI message count per timestep.
func (inst *Instance) MessagesPerStep() int {
	var n int
	for _, s := range inst.sends {
		n += len(s)
	}
	return n
}

// rankStepSignature is the compute kernel one rank executes each timestep.
func (inst *Instance) rankStepSignature(rank int) *workload.Signature {
	s := inst.Spec
	instr := inst.rankInstrStep[rank]
	if instr <= 0 {
		instr = 1 // a rank may own no zones at extreme imbalance
	}
	foot := inst.rankFoot[rank]
	if foot < 1 {
		foot = 1
	}
	return &workload.Signature{
		Name:               inst.name,
		Instructions:       instr,
		FPFraction:         s.FPFraction,
		MemFraction:        s.MemFraction,
		BranchFraction:     s.BranchFraction,
		BranchMissRate:     s.BranchMissRate,
		ILP:                s.ILP,
		Footprint:          foot,
		Alpha:              s.Alpha,
		StreamFraction:     s.StreamFraction,
		RemoteFraction:     0.05,
		DialectSensitivity: 1,
	}
}

// MeanRankSignature is the whole-run average per-rank compute signature —
// the unit the compute projection characterises with hardware counters.
func (inst *Instance) MeanRankSignature() *workload.Signature {
	s := inst.Spec
	sig := inst.rankStepSignature(0) // shape fields
	sig.Instructions = s.Points() * s.InstrPerPoint * float64(s.Steps) / float64(inst.Cfg.Ranks)
	sig.Footprint = units.Bytes(s.Points() * s.BytesPerPoint / float64(inst.Cfg.Ranks))
	if sig.Footprint < 1 {
		sig.Footprint = 1
	}
	return sig
}
