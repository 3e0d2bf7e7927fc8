// Package topo models interconnect topologies at the granularity SWAPP's
// communication substrate needs: given two node indices, how many network
// hops separate them, and what the average distance over a job's placement
// looks like. Three families cover Table 2: switched fat-trees (InfiniBand),
// the HPS Federation multistage switch (Hydra), and BlueGene/P's 3-D torus.
package topo

import (
	"fmt"

	"repro/internal/arch"
)

// Topology answers distance queries over node indices [0, Nodes).
type Topology interface {
	// Nodes is the number of endpoints.
	Nodes() int
	// Hops returns the switch/router hops between two nodes. Zero for
	// a node to itself.
	Hops(a, b int) int
}

// AverageHops estimates the mean hop distance over the first n nodes of t
// (a job's placement), by exact enumeration for small n and striding for
// large.
func AverageHops(t Topology, n int) float64 {
	if n > t.Nodes() {
		n = t.Nodes()
	}
	if n <= 1 {
		return 0
	}
	stride := 1
	if n > 64 {
		stride = n / 64
	}
	var sum float64
	var count int
	for a := 0; a < n; a += stride {
		for b := 0; b < n; b += stride {
			if a == b {
				continue
			}
			sum += float64(t.Hops(a, b))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// FatTree is a two-level switched network: nodes hang off leaf switches of
// the given radix; leaves connect through a spine. Same-leaf traffic takes
// 1 hop (through the leaf switch), cross-leaf traffic 3 (leaf–spine–leaf).
type FatTree struct {
	nodes     int
	leafRadix int
}

// NewFatTree builds a fat-tree over nodes endpoints with leafRadix nodes
// per leaf switch.
func NewFatTree(nodes, leafRadix int) *FatTree {
	if nodes <= 0 || leafRadix <= 0 {
		panic("topo: bad fat-tree shape")
	}
	return &FatTree{nodes: nodes, leafRadix: leafRadix}
}

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.nodes }

// Hops implements Topology.
func (f *FatTree) Hops(a, b int) int {
	if a == b {
		return 0
	}
	if a/f.leafRadix == b/f.leafRadix {
		return 1
	}
	return 3
}

// Torus3D is a 3-dimensional torus with wraparound links; hop distance is
// the wrapped Manhattan distance. Node i maps to coordinates in row-major
// (x fastest) order.
type Torus3D struct {
	dims [3]int
}

// NewTorus3D builds an X×Y×Z torus.
func NewTorus3D(dims [3]int) *Torus3D {
	if dims[0] <= 0 || dims[1] <= 0 || dims[2] <= 0 {
		panic("topo: bad torus dims")
	}
	return &Torus3D{dims: dims}
}

// Nodes implements Topology.
func (t *Torus3D) Nodes() int { return t.dims[0] * t.dims[1] * t.dims[2] }

// Coords returns the (x, y, z) position of node i.
func (t *Torus3D) Coords(i int) (x, y, z int) {
	x = i % t.dims[0]
	y = (i / t.dims[0]) % t.dims[1]
	z = i / (t.dims[0] * t.dims[1])
	return
}

// wrapDist is the ring distance between coordinates on an axis of length n.
func wrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Hops implements Topology.
func (t *Torus3D) Hops(a, b int) int {
	ax, ay, az := t.Coords(a)
	bx, by, bz := t.Coords(b)
	return wrapDist(ax, bx, t.dims[0]) + wrapDist(ay, by, t.dims[1]) + wrapDist(az, bz, t.dims[2])
}

// TreeDepth returns the depth of a balanced binary combining tree over n
// nodes — the cost shape of BlueGene/P's dedicated collective network.
func TreeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	d := 0
	for c := 1; c < n; c *= 2 {
		d++
	}
	return d
}

// For constructs the topology of a machine's interconnect.
func For(m *arch.Machine) Topology {
	switch m.Net.Kind {
	case arch.TopoTorus3D:
		return NewTorus3D(m.Net.TorusDims)
	case arch.TopoFatTree:
		// Leaf radix ~ a 24-port switch half used for nodes.
		return NewFatTree(m.Nodes(), 12)
	case arch.TopoFederation:
		// HPS: 16-way node groups through the multistage switch.
		return NewFatTree(m.Nodes(), 16)
	default:
		panic(fmt.Sprintf("topo: unknown interconnect kind %q", m.Net.Kind))
	}
}
