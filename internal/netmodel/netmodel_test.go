package netmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/units"
)

func model(name string) *Model { return New(arch.MustGet(name)) }

func TestNodeOfDensePacking(t *testing.T) {
	md := model(arch.Hydra) // 16 cores/node
	if md.NodeOf(0) != 0 || md.NodeOf(15) != 0 || md.NodeOf(16) != 1 {
		t.Error("dense packing broken")
	}
	if !md.Intra(3, 12) || md.Intra(15, 16) {
		t.Error("Intra broken")
	}
}

func TestP2PIntraVsInter(t *testing.T) {
	md := model(arch.Power6)
	intra := md.P2P(0, 1, 1024)
	inter := md.P2P(0, 40, 1024) // 32 cores/node → rank 40 is node 1
	if intra.Latency >= inter.Latency {
		t.Error("intra-node latency must beat inter-node")
	}
	if intra.Serialize >= inter.Serialize {
		t.Error("intra-node bandwidth must beat inter-node")
	}
	if intra.LibOverhead != inter.LibOverhead {
		t.Error("library overhead is software; it should not depend on the path")
	}
}

func TestP2PEagerVsRendezvous(t *testing.T) {
	md := model(arch.Westmere) // rendezvous at 16 KiB
	small := md.P2P(0, 20, 1*units.KiB)
	big := md.P2P(0, 20, 64*units.KiB)
	if small.Rendezvous {
		t.Error("1 KiB must be eager")
	}
	if !big.Rendezvous {
		t.Error("64 KiB must rendezvous")
	}
	if big.Handshake <= 0 {
		t.Error("rendezvous messages pay a handshake")
	}
	if big.Total() <= small.Total() {
		t.Error("bigger message must cost more")
	}
}

// Property: P2P cost is monotone in size and every component non-negative.
func TestP2PMonotoneProperty(t *testing.T) {
	md := model(arch.BlueGene)
	f := func(s1, s2 uint32, a, b uint8) bool {
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		src, dst := int(a)%64, int(b)%64
		c1 := md.P2P(src, dst, units.Bytes(s1))
		c2 := md.P2P(src, dst, units.Bytes(s2))
		if c1.LibOverhead < 0 || c1.Latency < 0 || c1.Serialize < 0 {
			return false
		}
		return c1.InFlight() <= c2.InFlight()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusDistanceAffectsLatency(t *testing.T) {
	md := model(arch.BlueGene)    // 4 cores/node, torus 8×8×16
	near := md.P2P(0, 4, 1024)    // node 0 → node 1 (1 hop)
	far := md.P2P(0, 4*4+2, 1024) // node 0 → node 4 (4 hops on x)
	if near.Latency >= far.Latency {
		t.Errorf("torus latency must grow with hops: near=%v far=%v", near.Latency, far.Latency)
	}
}

func TestCollectiveTreeNearConstantInRanks(t *testing.T) {
	bg := model(arch.BlueGene)
	t64 := bg.Bcast(1024, 64)
	t1024 := bg.Bcast(1024, 1024)
	if t1024 > 2*t64 {
		t.Errorf("BG/P tree bcast should be near-constant: 64→%v 1024→%v", t64, t1024)
	}
	// By contrast a switched cluster's bcast grows with log(p).
	p6 := model(arch.Power6)
	if p6.Bcast(1024, 128) <= p6.Bcast(1024, 4) {
		t.Error("binomial bcast must grow with rank count")
	}
}

func TestCollectivesTrivialAtOneRank(t *testing.T) {
	md := model(arch.Hydra)
	if md.Bcast(1024, 1) != 0 || md.Reduce(1024, 1) != 0 ||
		md.Allreduce(1024, 1) != 0 || md.Barrier(1) != 0 ||
		md.Allgather(1024, 1) != 0 || md.Alltoall(1024, 1) != 0 {
		t.Error("single-rank collectives are free")
	}
}

func TestReduceCostsMoreThanBcast(t *testing.T) {
	md := model(arch.Hydra)
	if md.Reduce(64*units.KiB, 64) <= md.Bcast(64*units.KiB, 64) {
		t.Error("reduce adds operator cost over bcast")
	}
}

func TestAllreduceIsReducePlusBcast(t *testing.T) {
	md := model(arch.Westmere)
	r, b, ar := md.Reduce(4096, 96), md.Bcast(4096, 96), md.Allreduce(4096, 96)
	if ar != r+b {
		t.Errorf("allreduce = %v, want reduce %v + bcast %v", ar, r, b)
	}
}

// Property: all collective costs are non-negative and monotone in size.
func TestCollectiveMonotoneProperty(t *testing.T) {
	md := model(arch.Power6)
	f := func(s1, s2 uint16, rr uint8) bool {
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		ranks := int(rr)%128 + 2
		a, b := units.Bytes(s1), units.Bytes(s2)
		checks := []struct{ lo, hi units.Seconds }{
			{md.Bcast(a, ranks), md.Bcast(b, ranks)},
			{md.Reduce(a, ranks), md.Reduce(b, ranks)},
			{md.Allgather(a, ranks), md.Allgather(b, ranks)},
			{md.Alltoall(a, ranks), md.Alltoall(b, ranks)},
		}
		for _, c := range checks {
			if c.lo < 0 || c.lo > c.hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntraNodeCollectiveCheaper(t *testing.T) {
	md := model(arch.Hydra)      // 16 cores/node
	within := md.Bcast(4096, 16) // one node
	across := md.Bcast(4096, 32) // two nodes
	if within >= across {
		t.Errorf("intra-node collective must be cheaper: %v vs %v", within, across)
	}
}

func TestAlltoallCongestionOnTorus(t *testing.T) {
	bg := model(arch.BlueGene)
	p6 := model(arch.Power6)
	// Normalize by each machine's own allgather to isolate the
	// congestion surcharge: the torus pays relatively more for alltoall.
	bgRatio := bg.Alltoall(64*units.KiB, 64) / bg.Allgather(64*units.KiB, 64)
	p6Ratio := p6.Alltoall(64*units.KiB, 64) / p6.Allgather(64*units.KiB, 64)
	if bgRatio <= p6Ratio {
		t.Errorf("torus must suffer relatively more congestion: bg=%v p6=%v", bgRatio, p6Ratio)
	}
}

func TestInFlightAndTotal(t *testing.T) {
	md := model(arch.Hydra)
	c := md.P2P(0, 32, 8*units.KiB)
	if c.InFlight() != c.Latency+c.Serialize {
		t.Error("InFlight definition broken")
	}
	want := c.LibOverhead + c.InFlight()
	if c.Rendezvous {
		want += c.Handshake
	}
	if c.Total() != want {
		t.Error("Total definition broken")
	}
}

func TestHybridPlacement(t *testing.T) {
	m := arch.MustGet(arch.Hydra) // 16 cores/node
	md := NewPlaced(m, 4)         // 4 threads per rank
	if md.RanksPerNode != 4 {
		t.Fatalf("RanksPerNode = %d", md.RanksPerNode)
	}
	if md.NodeOf(3) != 0 || md.NodeOf(4) != 1 {
		t.Error("hybrid NodeOf broken")
	}
	if !md.Intra(0, 3) || md.Intra(3, 4) {
		t.Error("hybrid Intra broken")
	}
	// Clamping.
	if NewPlaced(m, 0).RanksPerNode != 1 {
		t.Error("zero ranks per node must clamp to 1")
	}
	if NewPlaced(m, 99).RanksPerNode != m.CoresPerNode {
		t.Error("excess ranks per node must clamp to cores per node")
	}
	// The same rank count spans more nodes under hybrid placement; once
	// the span crosses a fat-tree leaf (128 ranks → 32 nodes vs 8), the
	// longer average distance makes collectives costlier.
	pure := New(m)
	if md.jobNodes(128) <= pure.jobNodes(128) {
		t.Error("hybrid placement must span more nodes")
	}
	if md.Bcast(4096, 128) <= pure.Bcast(4096, 128) {
		t.Error("hybrid placement spans more nodes; collectives must cost more")
	}
}

// InFlight is the network-only transfer time of the message (excluding
// library overhead and any rendezvous stall).
func (c P2PCost) InFlight() units.Seconds { return c.Latency + c.Serialize }

// Total is the full uncontended transfer time of a single message.
func (c P2PCost) Total() units.Seconds {
	t := c.LibOverhead + c.InFlight()
	if c.Rendezvous {
		t += c.Handshake
	}
	return t
}
