package topo

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestFatTreeHops(t *testing.T) {
	f := NewFatTree(48, 12)
	if f.Hops(0, 0) != 0 {
		t.Error("self distance must be 0")
	}
	if f.Hops(0, 11) != 1 {
		t.Error("same leaf must be 1 hop")
	}
	if f.Hops(0, 12) != 3 {
		t.Error("cross leaf must be 3 hops")
	}
	if f.Diameter() != 3 {
		t.Error("two-level diameter is 3")
	}
	small := NewFatTree(8, 12)
	if small.Diameter() != 1 {
		t.Error("single-leaf system diameter is 1")
	}
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := NewTorus3D([3]int{4, 3, 2})
	seen := map[[3]int]bool{}
	for i := 0; i < tor.Nodes(); i++ {
		x, y, z := tor.Coords(i)
		if x < 0 || x >= 4 || y < 0 || y >= 3 || z < 0 || z >= 2 {
			t.Fatalf("node %d: coords (%d,%d,%d) out of range", i, x, y, z)
		}
		key := [3]int{x, y, z}
		if seen[key] {
			t.Fatalf("duplicate coords %v", key)
		}
		seen[key] = true
	}
	if len(seen) != 24 {
		t.Errorf("coords cover %d cells, want 24", len(seen))
	}
}

func TestTorusWraparound(t *testing.T) {
	tor := NewTorus3D([3]int{8, 8, 16})
	// Nodes 0 and 7 on the x axis are 1 hop apart via wraparound.
	if got := tor.Hops(0, 7); got != 1 {
		t.Errorf("wrap distance = %d, want 1", got)
	}
	if got := tor.Hops(0, 4); got != 4 {
		t.Errorf("half-ring distance = %d, want 4", got)
	}
	if tor.Diameter() != 4+4+8 {
		t.Errorf("diameter = %d, want 16", tor.Diameter())
	}
}

// Properties: symmetry, identity, triangle inequality, diameter bound.
func TestTorusMetricProperties(t *testing.T) {
	tor := NewTorus3D([3]int{8, 8, 16})
	n := tor.Nodes()
	f := func(a, b, c uint16) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		dxy, dyx := tor.Hops(x, y), tor.Hops(y, x)
		if dxy != dyx {
			return false
		}
		if tor.Hops(x, x) != 0 {
			return false
		}
		if dxy > tor.Diameter() {
			return false
		}
		return tor.Hops(x, z) <= dxy+tor.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFatTreeMetricProperties(t *testing.T) {
	ft := NewFatTree(64, 12)
	f := func(a, b uint16) bool {
		x, y := int(a)%64, int(b)%64
		if ft.Hops(x, y) != ft.Hops(y, x) {
			return false
		}
		return ft.Hops(x, x) == 0 && ft.Hops(x, y) <= ft.Diameter()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreeDepth(t *testing.T) {
	cases := []struct{ n, d int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := TreeDepth(c.n); got != c.d {
			t.Errorf("TreeDepth(%d) = %d, want %d", c.n, got, c.d)
		}
	}
}

func TestAverageHops(t *testing.T) {
	ft := NewFatTree(24, 12)
	// Within one leaf: everything is 1 hop.
	if avg := AverageHops(ft, 12); avg != 1 {
		t.Errorf("single-leaf average = %v, want 1", avg)
	}
	full := AverageHops(ft, 24)
	if full <= 1 || full >= 3 {
		t.Errorf("two-leaf average = %v, want in (1,3)", full)
	}
	if AverageHops(ft, 1) != 0 {
		t.Error("single node has no distance")
	}
	// Requesting more nodes than exist clamps.
	if AverageHops(ft, 100) != full {
		t.Error("clamp to topology size broken")
	}
}

func TestForBuildsFromMachines(t *testing.T) {
	for _, name := range arch.Names() {
		m := arch.MustGet(name)
		tp := For(m)
		if tp.Nodes() < m.Nodes() {
			t.Errorf("%s: topology smaller than machine (%d < %d)", m.Name, tp.Nodes(), m.Nodes())
		}
		switch m.Name {
		case arch.BlueGene:
			if _, ok := tp.(*Torus3D); !ok {
				t.Errorf("BG/P should be a torus, got %T", tp)
			}
		default:
			if _, ok := tp.(*FatTree); !ok {
				t.Errorf("%s should be switched, got %T", m.Name, tp)
			}
		}
	}
}

func TestNewPanicsOnBadShapes(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFatTree(0, 12) },
		func() { NewFatTree(12, 0) },
		func() { NewTorus3D([3]int{0, 1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad shape must panic")
				}
			}()
			fn()
		}()
	}
}

// Diameter is the maximum hop count between any node pair: the bound the
// Hops properties check against.
func (f *FatTree) Diameter() int {
	if f.nodes <= f.leafRadix {
		return 1
	}
	return 3
}

// Diameter is the maximum hop count between any node pair: the bound the
// Hops properties check against.
func (t *Torus3D) Diameter() int {
	return t.dims[0]/2 + t.dims[1]/2 + t.dims[2]/2
}
