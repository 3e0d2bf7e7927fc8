package arch

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestRegistryHasTable2Machines(t *testing.T) {
	want := []string{BlueGene, Hydra, Power6, Westmere}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("cray-xt5"); err == nil {
		t.Fatal("unknown machine must error")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on unknown name must panic")
		}
	}()
	MustGet("nope")
}

// Table 2 of the paper, verbatim.
func TestTable2Values(t *testing.T) {
	cases := []struct {
		name         string
		proc         string
		totalCores   int
		coresPerNode int
		memPerCore   float64
	}{
		{Hydra, "POWER5+", 832, 16, 2},
		{Power6, "POWER6", 128, 32, 4},
		{BlueGene, "PowerPC 450", 4096, 4, 1},
		{Westmere, "Xeon X5670", 768, 12, 2},
	}
	for _, c := range cases {
		m := MustGet(c.name)
		if m.Proc.Name != c.proc {
			t.Errorf("%s: proc = %q, want %q", c.name, m.Proc.Name, c.proc)
		}
		if m.TotalCores != c.totalCores {
			t.Errorf("%s: total cores = %d, want %d", c.name, m.TotalCores, c.totalCores)
		}
		if m.CoresPerNode != c.coresPerNode {
			t.Errorf("%s: cores/node = %d, want %d", c.name, m.CoresPerNode, c.coresPerNode)
		}
		if m.MemPerCoreGiB != c.memPerCore {
			t.Errorf("%s: mem/core = %v, want %v", c.name, m.MemPerCoreGiB, c.memPerCore)
		}
	}
}

func TestModelSanity(t *testing.T) {
	for _, name := range Names() {
		m := MustGet(name)
		if m.Proc.ClockGHz <= 0 || m.Proc.IssueWidth <= 0 || m.Proc.BaseCPI <= 0 {
			t.Errorf("%s: nonsense core parameters", m.Name)
		}
		if len(m.Proc.Caches) < 2 {
			t.Errorf("%s: needs at least L1+L2", m.Name)
		}
		var prevLat float64
		for _, c := range m.Proc.Caches {
			if c.Capacity <= 0 || c.LatencyCycles <= prevLat || c.SharedBy < 1 {
				t.Errorf("%s/%s: cache levels must grow in latency and be positive", m.Name, c.Name)
			}
			prevLat = c.LatencyCycles
		}
		memCycles := m.Proc.MemLatencyNs * m.Proc.ClockGHz
		if memCycles <= m.Proc.LastLevel().LatencyCycles {
			t.Errorf("%s: memory must be slower than the last cache level", m.Name)
		}
		if m.TotalCores%m.CoresPerNode != 0 {
			t.Errorf("%s: total cores must be a whole number of nodes", m.Name)
		}
		if m.Net.LatencyUS <= 0 || m.Net.BandwidthGBs <= 0 || m.Net.LibOverheadUS <= 0 {
			t.Errorf("%s: nonsense interconnect parameters", m.Name)
		}
		if m.Net.IntraLatencyUS >= m.Net.LatencyUS {
			t.Errorf("%s: intra-node latency should beat inter-node", m.Name)
		}
	}
}

func TestEffectivePerCore(t *testing.T) {
	c := CacheLevel{Capacity: 8 * units.MiB, SharedBy: 4}
	if c.EffectivePerCore() != 2*units.MiB {
		t.Errorf("EffectivePerCore = %v", c.EffectivePerCore())
	}
	c.SharedBy = 1
	if c.EffectivePerCore() != 8*units.MiB {
		t.Error("unshared cache must report full capacity")
	}
}

func TestNodesFor(t *testing.T) {
	m := MustGet(Hydra) // 16 cores/node
	cases := []struct{ ranks, nodes int }{
		{0, 0}, {1, 1}, {16, 1}, {17, 2}, {128, 8},
	}
	for _, c := range cases {
		if got := m.NodesFor(c.ranks); got != c.nodes {
			t.Errorf("NodesFor(%d) = %d, want %d", c.ranks, got, c.nodes)
		}
	}
	if m.Nodes() != 52 {
		t.Errorf("Hydra Nodes() = %d, want 52", m.Nodes())
	}
}

func TestISADistanceOrdering(t *testing.T) {
	base := MustGet(Hydra)
	p6 := ISADistance(base, MustGet(Power6))
	bg := ISADistance(base, MustGet(BlueGene))
	wm := ISADistance(base, MustGet(Westmere))
	if ISADistance(base, base) != 0 {
		t.Error("self distance must be 0")
	}
	if !(p6 < bg && bg < wm) {
		t.Errorf("want P6 < BG/P < Westmere distance, got %v %v %v", p6, bg, wm)
	}
	// The scale feeds projection error; keep it in the paper's regime.
	if wm > 0.25 || p6 < 0.01 {
		t.Errorf("distance scale out of regime: p6=%v wm=%v", p6, wm)
	}
}

func TestBlueGeneCollectiveTree(t *testing.T) {
	bg := MustGet(BlueGene)
	if !bg.Net.HasCollectiveTree {
		t.Fatal("BG/P must model the collective tree")
	}
	if bg.Net.Kind != TopoTorus3D {
		t.Fatal("BG/P point-to-point network is a 3D torus")
	}
	d := bg.Net.TorusDims
	if d[0]*d[1]*d[2] != bg.Nodes() {
		t.Errorf("torus dims %v do not cover %d nodes", d, bg.Nodes())
	}
	for _, name := range Names() {
		m := MustGet(name)
		if m.Name != BlueGene && m.Net.HasCollectiveTree {
			t.Errorf("%s should not have a collective tree", m.Name)
		}
	}
}

func TestStringMentionsEssentials(t *testing.T) {
	s := MustGet(Westmere).String()
	for _, frag := range []string{"X5670", "768", "InfiniBand"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
