// Package arch defines parametric models of the four systems in the paper's
// Table 2 — the TAMU Hydra POWER5+ base machine and the three projection
// targets (IBM POWER6 575, IBM BlueGene/P, IBM iDataPlex Westmere X5670) —
// plus the vocabulary (processors, cache hierarchies, interconnects) the
// rest of the simulator consumes.
//
// The paper ran on real hardware; this reproduction substitutes analytic
// machine models. A model carries everything the two measurement substrates
// need: the hardware-counter simulator (internal/hpm) reads the processor
// and cache parameters, and the network model (internal/netmodel) reads the
// interconnect parameters. Parameter values are drawn from the published
// specifications of the real machines so cross-machine ratios (clock, cache
// capacity, link latency) are realistic even though absolute times are
// simulated.
package arch

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// ISA identifies an instruction-set family. SWAPP's accuracy depends on it:
// the paper observes that projections onto the POWER6 (same ISA as the
// POWER5+ base) beat projections onto the x86 Westmere.
type ISA string

// Instruction-set families used by the Table 2 machines.
const (
	// ISAPower covers the Power ISA lineage: POWER5+/POWER6 server cores
	// and the PowerPC 450 embedded core in BlueGene/P.
	ISAPower ISA = "power"
	// ISAX86 is Intel Westmere.
	ISAX86 ISA = "x86"
)

// MicroArchClass coarsely groups core designs; together with ISA it drives
// the idiosyncrasy scale (how much of a machine's response SWAPP's surrogate
// transfer cannot capture).
type MicroArchClass string

// Microarchitecture classes.
const (
	ClassServerOoO   MicroArchClass = "server-ooo"   // big out-of-order server core
	ClassServerInOrd MicroArchClass = "server-inord" // in-order server core (POWER6)
	ClassEmbedded    MicroArchClass = "embedded"     // low-power in-order (PPC 450)
)

// CacheLevel describes one level of the data-cache hierarchy.
type CacheLevel struct {
	Name          string      // "L1", "L2", "L3"
	Capacity      units.Bytes // total capacity of one cache instance
	SharedBy      int         // cores sharing that instance
	LatencyCycles float64     // load-to-use latency in core cycles
	LineSize      units.Bytes
}

// EffectivePerCore returns the capacity available to one core when the
// instance is shared equally.
func (c CacheLevel) EffectivePerCore() units.Bytes {
	if c.SharedBy <= 1 {
		return c.Capacity
	}
	return c.Capacity / units.Bytes(c.SharedBy)
}

// Processor models a core family: everything the CPI-stack and cache
// footprint simulation in internal/hpm needs.
type Processor struct {
	Name       string
	ISA        ISA
	Class      MicroArchClass
	ClockGHz   float64
	IssueWidth int     // maximum instructions completed per cycle
	BaseCPI    float64 // completion CPI at infinite cache, perfect ILP
	FPPerCycle float64 // peak FP operations per cycle (FMA counted as 2)

	Caches       []CacheLevel // ordered L1 → last level
	MemLatencyNs float64      // local memory load latency
	RemoteLatNs  float64      // remote-socket/NUMA memory latency
	MemBWGBs     float64      // sustainable memory bandwidth per core, GB/s

	SMTWays int     // hardware threads per core (1 = none)
	SMTGain float64 // core throughput multiplier with all SMT threads busy

	TLBEntries  int // data TLB entries (4K pages)
	ERATEntries int // effective-to-real address translation entries
	SLBEntries  int // segment lookaside buffer entries (POWER) or 0
	PageBytes   units.Bytes
}

// LastLevel returns the last (largest) cache level.
func (p *Processor) LastLevel() CacheLevel { return p.Caches[len(p.Caches)-1] }

// TopologyKind names the interconnect topology family; internal/topo builds
// the concrete graph.
type TopologyKind string

// Interconnect topology families from Table 2.
const (
	TopoFatTree    TopologyKind = "fat-tree"   // InfiniBand clusters
	TopoFederation TopologyKind = "federation" // IBM HPS on Hydra
	TopoTorus3D    TopologyKind = "torus-3d"   // BlueGene/P main network
)

// Interconnect carries the network parameters: a LogGP-style base cost plus
// topology shape. BlueGene/P additionally has the dedicated collective-tree
// network the paper calls out.
type Interconnect struct {
	Name string
	Kind TopologyKind

	// Inter-node point-to-point parameters.
	LatencyUS    float64 // one-way small-message latency between adjacent nodes
	BandwidthGBs float64 // per-link bandwidth
	PerHopUS     float64 // additional latency per topology hop

	// MPI software stack cost (the paper's T_LibraryOverhead in Eq. 1).
	LibOverheadUS float64     // per-call library overhead
	RendezvousB   units.Bytes // eager→rendezvous threshold

	// Intra-node (shared-memory) transport.
	IntraLatencyUS    float64
	IntraBandwidthGBs float64

	// Topology shape.
	TorusDims [3]int // used when Kind == TopoTorus3D

	// HasCollectiveTree marks BG/P's dedicated collective network, which
	// serves Bcast/Reduce/Allreduce at near-constant cost in node count.
	HasCollectiveTree bool
	TreeLatencyUS     float64 // collective-tree injection latency
	TreeBandwidthGBs  float64
	TreePerLevelUS    float64 // per-tree-level latency
}

// Machine is a complete Table 2 system: processor, node shape, scale and
// interconnect.
type Machine struct {
	Name          string // registry key, e.g. "hydra"
	FullName      string // display name, e.g. "TAMU Hydra (IBM POWER5+ 575)"
	Proc          Processor
	CoresPerNode  int
	TotalCores    int
	MemPerCoreGiB float64
	Net           Interconnect

	// OSJitterSigma is the relative per-timestep compute-time jitter from
	// OS noise (daemons, interrupts, memory-placement variance). It is
	// what turns balanced codes' boundary synchronization into WaitTime.
	// BlueGene's compute-node microkernel is famously quiet; commodity
	// Linux clusters are not.
	OSJitterSigma float64
}

// Nodes returns the number of nodes in the system.
func (m *Machine) Nodes() int { return m.TotalCores / m.CoresPerNode }

// NodesFor returns how many nodes a job of ranks tasks occupies when packed
// densely (the paper's task placement: fill each node before the next).
func (m *Machine) NodesFor(ranks int) int {
	if ranks <= 0 {
		return 0
	}
	return (ranks + m.CoresPerNode - 1) / m.CoresPerNode
}

// String implements fmt.Stringer.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %s @%.2fGHz, %d cores (%d/node), %s/core, %s",
		m.FullName, m.Proc.Name, m.Proc.ClockGHz, m.TotalCores, m.CoresPerNode,
		units.FormatBytes(units.Bytes(m.MemPerCoreGiB*float64(units.GiB))), m.Net.Name)
}

// ISADistance quantifies how far machine b's processor is from machine a's,
// as seen by a surrogate-based projection: 0 for the same processor, small
// for same-ISA same-class, growing with class and ISA mismatch. SWAPP's
// observed error ordering (POWER6 < BG/P < Westmere when projecting from a
// POWER5+) follows from this scale — it feeds the idiosyncratic response
// sigma in the measurement substrates.
func ISADistance(a, b *Machine) float64 {
	if a.Proc.Name == b.Proc.Name {
		return 0
	}
	d := 0.020 // different chips always differ some
	if a.Proc.ISA != b.Proc.ISA {
		d += 0.062
	}
	if a.Proc.Class != b.Proc.Class {
		// Graded class distance: an embedded core is further from a
		// server core than the in-order/out-of-order split.
		if a.Proc.Class == ClassEmbedded || b.Proc.Class == ClassEmbedded {
			d += 0.042
		} else {
			d += 0.012
		}
	}
	return d
}

// registry holds the Table 2 machines keyed by short name.
var registry = map[string]*Machine{}

func register(m *Machine) {
	if _, dup := registry[m.Name]; dup {
		panic("arch: duplicate machine " + m.Name)
	}
	registry[m.Name] = m
}

// Get returns the registered machine with the given short name.
func Get(name string) (*Machine, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("arch: unknown machine %q (known: %v)", name, Names())
	}
	return m, nil
}

// MustGet is Get for static names; it panics on unknown names.
func MustGet(name string) *Machine {
	m, err := Get(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names returns the registered machine names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Short names of the Table 2 machines.
const (
	Hydra    = "hydra"          // base machine: TAMU Hydra, POWER5+ 575, HPS Federation
	Power6   = "power6-575"     // target: IBM POWER6 575, InfiniBand
	BlueGene = "bgp"            // target: IBM BlueGene/P, 3-D torus + collective tree
	Westmere = "westmere-x5670" // target: IBM iDataPlex, Xeon X5670, InfiniBand
)

func init() {
	// TAMU Hydra — IBM p5-575, POWER5+ 1.9 GHz, 16 cores/node, HPS
	// "Federation" switch. The paper's base machine.
	register(&Machine{
		Name:     Hydra,
		FullName: "TAMU Hydra (IBM POWER5+ 575)",
		Proc: Processor{
			Name:       "POWER5+",
			ISA:        ISAPower,
			Class:      ClassServerOoO,
			ClockGHz:   1.9,
			IssueWidth: 5,
			BaseCPI:    0.58,
			FPPerCycle: 4, // 2 FPUs × FMA
			Caches: []CacheLevel{
				{Name: "L1", Capacity: 32 * units.KiB, SharedBy: 1, LatencyCycles: 2, LineSize: 128},
				{Name: "L2", Capacity: 1920 * units.KiB, SharedBy: 2, LatencyCycles: 13, LineSize: 128},
				{Name: "L3", Capacity: 36 * units.MiB, SharedBy: 2, LatencyCycles: 87, LineSize: 256},
			},
			MemLatencyNs: 110,
			RemoteLatNs:  220,
			MemBWGBs:     3.2,
			SMTWays:      2,
			SMTGain:      1.38,
			TLBEntries:   1024,
			ERATEntries:  128,
			SLBEntries:   64,
			PageBytes:    4 * units.KiB,
		},
		CoresPerNode:  16,
		TotalCores:    832,
		MemPerCoreGiB: 2,
		OSJitterSigma: 0.035,
		Net: Interconnect{
			Name:              "HPS Federation",
			Kind:              TopoFederation,
			LatencyUS:         4.7,
			BandwidthGBs:      1.4,
			PerHopUS:          0.35,
			LibOverheadUS:     2.1,
			RendezvousB:       32 * units.KiB,
			IntraLatencyUS:    0.9,
			IntraBandwidthGBs: 2.0,
		},
	})

	// IBM POWER6 575 — 4.7 GHz in-order POWER6, 32 cores/node, DDR
	// InfiniBand. Same ISA family as the base: the paper's most accurate
	// target.
	register(&Machine{
		Name:     Power6,
		FullName: "IBM POWER6 575 cluster",
		Proc: Processor{
			Name:       "POWER6",
			ISA:        ISAPower,
			Class:      ClassServerInOrd,
			ClockGHz:   4.7,
			IssueWidth: 5,
			BaseCPI:    0.72, // in-order core completes less per cycle at same width
			FPPerCycle: 4,
			Caches: []CacheLevel{
				{Name: "L1", Capacity: 64 * units.KiB, SharedBy: 1, LatencyCycles: 4, LineSize: 128},
				{Name: "L2", Capacity: 4 * units.MiB, SharedBy: 1, LatencyCycles: 24, LineSize: 128},
				{Name: "L3", Capacity: 32 * units.MiB, SharedBy: 2, LatencyCycles: 160, LineSize: 128},
			},
			MemLatencyNs: 100,
			RemoteLatNs:  210,
			MemBWGBs:     5.0,
			SMTWays:      2,
			SMTGain:      1.45,
			TLBEntries:   2048,
			ERATEntries:  128,
			SLBEntries:   64,
			PageBytes:    4 * units.KiB,
		},
		CoresPerNode:  32,
		TotalCores:    128,
		MemPerCoreGiB: 4,
		OSJitterSigma: 0.035,
		Net: Interconnect{
			Name:              "InfiniBand DDR",
			Kind:              TopoFatTree,
			LatencyUS:         2.6,
			BandwidthGBs:      1.5,
			PerHopUS:          0.25,
			LibOverheadUS:     1.5,
			RendezvousB:       32 * units.KiB,
			IntraLatencyUS:    0.7,
			IntraBandwidthGBs: 3.0,
		},
	})

	// IBM BlueGene/P — PowerPC 450 850 MHz, 4 cores/node ("Virtual Node"
	// mode in the paper), 3-D torus for point-to-point plus a dedicated
	// collective-tree network.
	register(&Machine{
		Name:     BlueGene,
		FullName: "IBM BlueGene/P",
		Proc: Processor{
			Name:       "PowerPC 450",
			ISA:        ISAPower,
			Class:      ClassEmbedded,
			ClockGHz:   0.85,
			IssueWidth: 2,
			BaseCPI:    0.95,
			FPPerCycle: 4, // double hummer SIMD FPU
			Caches: []CacheLevel{
				{Name: "L1", Capacity: 32 * units.KiB, SharedBy: 1, LatencyCycles: 3, LineSize: 32},
				{Name: "L2", Capacity: 2 * units.KiB, SharedBy: 1, LatencyCycles: 12, LineSize: 128},
				{Name: "L3", Capacity: 8 * units.MiB, SharedBy: 4, LatencyCycles: 46, LineSize: 128},
			},
			MemLatencyNs: 95,
			RemoteLatNs:  95, // flat memory, no NUMA
			MemBWGBs:     3.4,
			SMTWays:      1,
			SMTGain:      1,
			TLBEntries:   64,
			ERATEntries:  0,
			SLBEntries:   0,
			PageBytes:    4 * units.KiB,
		},
		CoresPerNode:  4,
		TotalCores:    4096,
		MemPerCoreGiB: 1,
		OSJitterSigma: 0.020,
		Net: Interconnect{
			Name:              "3D Torus + Collective Tree",
			Kind:              TopoTorus3D,
			LatencyUS:         2.7,
			BandwidthGBs:      0.425, // per torus link
			PerHopUS:          0.1,
			LibOverheadUS:     1.9,
			RendezvousB:       1200,
			IntraLatencyUS:    0.8,
			IntraBandwidthGBs: 1.5,
			TorusDims:         [3]int{8, 8, 16}, // 1024 nodes
			HasCollectiveTree: true,
			TreeLatencyUS:     1.3,
			TreeBandwidthGBs:  0.85,
			TreePerLevelUS:    0.25,
		},
	})

	// IBM iDataPlex — Intel Xeon X5670 (Westmere-EP) 2.93 GHz, two
	// six-core sockets per node, QDR InfiniBand. Different ISA from the
	// base: the paper's least accurate target.
	register(&Machine{
		Name:     Westmere,
		FullName: "IBM iDataPlex (Intel Xeon X5670)",
		Proc: Processor{
			Name:       "Xeon X5670",
			ISA:        ISAX86,
			Class:      ClassServerOoO,
			ClockGHz:   2.93,
			IssueWidth: 4,
			BaseCPI:    0.52,
			FPPerCycle: 4, // SSE2 packed double
			Caches: []CacheLevel{
				{Name: "L1", Capacity: 32 * units.KiB, SharedBy: 1, LatencyCycles: 4, LineSize: 64},
				{Name: "L2", Capacity: 256 * units.KiB, SharedBy: 1, LatencyCycles: 10, LineSize: 64},
				{Name: "L3", Capacity: 12 * units.MiB, SharedBy: 6, LatencyCycles: 40, LineSize: 64},
			},
			MemLatencyNs: 70,
			RemoteLatNs:  120,
			MemBWGBs:     5.3,
			SMTWays:      2,
			SMTGain:      1.25,
			TLBEntries:   512,
			ERATEntries:  0,
			SLBEntries:   0,
			PageBytes:    4 * units.KiB,
		},
		CoresPerNode:  12,
		TotalCores:    768,
		MemPerCoreGiB: 2,
		OSJitterSigma: 0.050,
		Net: Interconnect{
			Name:              "InfiniBand QDR",
			Kind:              TopoFatTree,
			LatencyUS:         1.6,
			BandwidthGBs:      2.5,
			PerHopUS:          0.2,
			LibOverheadUS:     1.1,
			RendezvousB:       16 * units.KiB,
			IntraLatencyUS:    0.5,
			IntraBandwidthGBs: 4.0,
		},
	})
}
