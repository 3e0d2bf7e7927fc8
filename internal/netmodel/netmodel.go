// Package netmodel prices messages on a machine's interconnect. It is the
// cost side of the MPI substrate: the discrete-event MPI layer
// (internal/mpi) asks it what a point-to-point transfer or a collective
// costs, and charges simulated time accordingly.
//
// The point-to-point model follows the paper's Eq. 1 decomposition:
//
//	T_Transfer = T_LibraryOverhead + x·T_inFlight
//
// where the in-flight term is latency (base + per-hop) plus wire
// serialization (size/bandwidth), and x > 1 arises naturally in the MPI
// layer from NIC serialization when multiple non-blocking messages are in
// flight. Collectives are priced with standard algorithm cost models
// (binomial trees, rings) — except on BlueGene/P, whose dedicated
// collective-tree network serves broadcast/reduce at near-constant cost in
// node count, exactly the behaviour the paper's Table 2 calls out.
package netmodel

import (
	"math"

	"repro/internal/arch"
	"repro/internal/topo"
	"repro/internal/units"
)

// Model prices traffic on one machine.
type Model struct {
	M    *arch.Machine
	Topo topo.Topology

	// RanksPerNode is the dense-packing width: CoresPerNode for the
	// paper's one-task-per-core placement, fewer under hybrid
	// MPI/OpenMP (each rank occupies several cores with its threads).
	RanksPerNode int

	avgHops map[int]float64 // node count → average hop distance
}

// New builds the cost model for a machine with one task per core.
func New(m *arch.Machine) *Model {
	return NewPlaced(m, m.CoresPerNode)
}

// NewPlaced builds the cost model with ranksPerNode tasks per node (the
// hybrid MPI/OpenMP placement: ranksPerNode = cores / threads).
func NewPlaced(m *arch.Machine, ranksPerNode int) *Model {
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	if ranksPerNode > m.CoresPerNode {
		ranksPerNode = m.CoresPerNode
	}
	return &Model{M: m, Topo: topo.For(m), RanksPerNode: ranksPerNode, avgHops: map[int]float64{}}
}

// NodeOf maps a rank to its node under dense packing (fill a node before
// the next).
func (md *Model) NodeOf(rank int) int { return rank / md.RanksPerNode }

// Intra reports whether two ranks share a node.
func (md *Model) Intra(src, dst int) bool { return md.NodeOf(src) == md.NodeOf(dst) }

// P2PCost decomposes one message's cost per Eq. 1.
type P2PCost struct {
	// LibOverhead is the per-call MPI software cost, paid on the CPU.
	LibOverhead units.Seconds
	// Latency is the wire propagation component: base + per-hop.
	Latency units.Seconds
	// Serialize is the NIC occupancy: size over link bandwidth. Under
	// concurrent non-blocking messages this term serializes, yielding
	// the paper's x·T_inFlight behaviour.
	Serialize units.Seconds
	// Rendezvous marks messages above the eager threshold; they pay
	// Handshake extra and cannot fly before the receive is posted.
	Rendezvous bool
	Handshake  units.Seconds
}

// P2P prices one message of size bytes from src to dst (rank indices).
func (md *Model) P2P(src, dst int, size units.Bytes) P2PCost {
	net := &md.M.Net
	lib := net.LibOverheadUS * 1e-6
	if md.Intra(src, dst) {
		return P2PCost{
			LibOverhead: lib,
			Latency:     net.IntraLatencyUS * 1e-6,
			Serialize:   float64(size) / (net.IntraBandwidthGBs * 1e9),
			Rendezvous:  size >= net.RendezvousB,
			Handshake:   2 * net.IntraLatencyUS * 1e-6,
		}
	}
	hops := md.Topo.Hops(md.NodeOf(src), md.NodeOf(dst))
	lat := (net.LatencyUS + float64(hops)*net.PerHopUS) * 1e-6
	return P2PCost{
		LibOverhead: lib,
		Latency:     lat,
		Serialize:   float64(size) / (net.BandwidthGBs * 1e9),
		Rendezvous:  size >= net.RendezvousB,
		Handshake:   2 * lat,
	}
}

// jobNodes returns how many nodes a ranks-wide job spans.
func (md *Model) jobNodes(ranks int) int {
	if ranks <= 0 {
		return 0
	}
	return (ranks + md.RanksPerNode - 1) / md.RanksPerNode
}

// alphaBeta returns the effective per-stage latency α (seconds) and
// per-byte time β (seconds/byte) for a collective spanning ranks tasks.
func (md *Model) alphaBeta(ranks int) (alpha, beta float64) {
	net := &md.M.Net
	n := md.jobNodes(ranks)
	if n <= 1 {
		return (net.IntraLatencyUS + net.LibOverheadUS) * 1e-6,
			1 / (net.IntraBandwidthGBs * 1e9)
	}
	avg, ok := md.avgHops[n]
	if !ok {
		avg = topo.AverageHops(md.Topo, n)
		md.avgHops[n] = avg
	}
	alpha = (net.LatencyUS + avg*net.PerHopUS + net.LibOverheadUS) * 1e-6
	beta = 1 / (net.BandwidthGBs * 1e9)
	return
}

// stages is ceil(log2(ranks)): the depth of a binomial tree / butterfly.
func stages(ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(ranks)))
}

// reduceGamma is the per-byte cost of applying a reduction operator on the
// host CPU.
func (md *Model) reduceGamma() float64 {
	// ~8 bytes combined per core cycle.
	return 1 / (md.M.Proc.ClockGHz * 1e9 * 8)
}

// treeCollective prices one traversal of BlueGene/P's dedicated collective
// network.
func (md *Model) treeCollective(size units.Bytes, ranks int) units.Seconds {
	net := &md.M.Net
	depth := topo.TreeDepth(md.jobNodes(ranks))
	return net.TreeLatencyUS*1e-6 +
		float64(depth)*net.TreePerLevelUS*1e-6 +
		float64(size)/(net.TreeBandwidthGBs*1e9)
}

// useTree reports whether the collective tree serves this job (BG/P,
// spanning more than one node).
func (md *Model) useTree(ranks int) bool {
	return md.M.Net.HasCollectiveTree && md.jobNodes(ranks) > 1
}

// Bcast prices a broadcast of size bytes to ranks tasks.
func (md *Model) Bcast(size units.Bytes, ranks int) units.Seconds {
	if ranks <= 1 {
		return 0
	}
	if md.useTree(ranks) {
		return md.treeCollective(size, ranks)
	}
	a, b := md.alphaBeta(ranks)
	return stages(ranks) * (a + float64(size)*b)
}

// Reduce prices a reduction of size bytes across ranks tasks: a combining
// tree plus the operator cost at each stage.
func (md *Model) Reduce(size units.Bytes, ranks int) units.Seconds {
	if ranks <= 1 {
		return 0
	}
	g := md.reduceGamma() * float64(size)
	if md.useTree(ranks) {
		// The tree network combines in the switches; the operator cost
		// is hidden in the per-level latency.
		return md.treeCollective(size, ranks) + g
	}
	a, b := md.alphaBeta(ranks)
	return stages(ranks) * (a + float64(size)*b + g)
}

// Allreduce prices reduce-then-broadcast (or two tree traversals on BG/P).
func (md *Model) Allreduce(size units.Bytes, ranks int) units.Seconds {
	if ranks <= 1 {
		return 0
	}
	return md.Reduce(size, ranks) + md.Bcast(size, ranks)
}

// Barrier prices a zero-byte synchronization.
func (md *Model) Barrier(ranks int) units.Seconds {
	if ranks <= 1 {
		return 0
	}
	if md.useTree(ranks) {
		return md.treeCollective(0, ranks)
	}
	a, _ := md.alphaBeta(ranks)
	return stages(ranks) * a
}

// Allgather prices a ring allgather where every task contributes size
// bytes.
func (md *Model) Allgather(size units.Bytes, ranks int) units.Seconds {
	if ranks <= 1 {
		return 0
	}
	a, b := md.alphaBeta(ranks)
	return float64(ranks-1) * (a + float64(size)*b)
}

// Alltoall prices a personalized exchange of size bytes per pair, with a
// congestion surcharge: all-to-all traffic stresses bisection in a way the
// per-link β does not capture.
func (md *Model) Alltoall(size units.Bytes, ranks int) units.Seconds {
	if ranks <= 1 {
		return 0
	}
	a, b := md.alphaBeta(ranks)
	congestion := 1.0
	if md.jobNodes(ranks) > 1 {
		switch md.M.Net.Kind {
		case arch.TopoTorus3D:
			congestion = 1.9 // low-bisection torus suffers most
		default:
			congestion = 1.3
		}
	}
	return float64(ranks-1) * (a + float64(size)*b*congestion)
}
