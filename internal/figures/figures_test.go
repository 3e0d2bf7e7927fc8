package figures

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/nas"
)

// A single shared runner: each figure piece is expensive.
var shared = NewRunner()

func TestFigureIDMapping(t *testing.T) {
	cases := []struct {
		b      nas.Benchmark
		target string
		want   string
	}{
		{nas.BT, arch.BlueGene, "fig3"},
		{nas.BT, arch.Power6, "fig4"},
		{nas.BT, arch.Westmere, "fig5"},
		{nas.LU, arch.Power6, "fig6"},
		{nas.SP, arch.BlueGene, "fig7"},
		{nas.SP, arch.Power6, "fig8"},
		{nas.SP, arch.Westmere, "fig9"},
	}
	for _, c := range cases {
		if got := FigureID(c.b, c.target); got != c.want {
			t.Errorf("FigureID(%s,%s) = %s, want %s", c.b, c.target, got, c.want)
		}
	}
}

func TestTargetsOrder(t *testing.T) {
	want := []string{arch.BlueGene, arch.Power6, arch.Westmere}
	got := Targets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Targets() = %v", got)
		}
	}
}

func TestLUFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive in -short mode")
	}
	f, err := shared.LUFigure()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig6" || f.Bench != nas.LU {
		t.Errorf("figure labels wrong: %+v", f)
	}
	// Three systems × two classes.
	if len(f.Cells) != 6 {
		t.Fatalf("LU figure has %d cells, want 6", len(f.Cells))
	}
	for _, c := range f.Cells {
		if c.Ck != 16 {
			t.Errorf("LU runs at 16 ranks, cell says %d", c.Ck)
		}
		if c.P2PB != 0 {
			t.Errorf("NAS-MZ has no blocking p2p, got %v", c.P2PB)
		}
		if c.Combined < 0 || c.Computation < 0 {
			t.Error("errors are absolute values")
		}
	}
	if f.MeanCombined() > 30 {
		t.Errorf("LU mean error %.1f%% outside the paper's regime", f.MeanCombined())
	}
}

func TestValidateCachesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive in -short mode")
	}
	r := shared
	a, err := r.Validate(arch.Power6, nas.LU, nas.ClassC, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Validate(arch.Power6, nas.LU, nas.ClassC, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated validations must hit the cache (same pointer)")
	}
}

func TestRunnerParallelMatchesSerial(t *testing.T) {
	// Many goroutines asking one runner for the same cells race on its
	// memo and its store: two LU cells on one target share every
	// characterisation and differ in their profiles. This case stays in
	// -short so that the race detector sees it; the full mode widens it
	// to Figure 6's grid.
	cells := []cellKey{{arch.Power6, nas.LU, nas.ClassC, 16}, {arch.Power6, nas.LU, nas.ClassD, 16}}
	if !testing.Short() {
		cells = luCells()
	}
	serial := NewRunner()
	serial.Workers = 1
	parallel := NewRunner()
	parallel.Workers = 8

	const callers = 8
	got := make([][]*core.Validation, callers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*core.Validation, len(cells))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each caller starts at a different cell.
			for j := range cells {
				i := (g + j) % len(cells)
				k := cells[i]
				v, err := parallel.Validate(k.target, k.bench, k.class, k.ck)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = v
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Order-independence: every measurement is a pure function of its
	// key, so the serial runner's validations equal the shared ones.
	for i, k := range cells {
		for g := range got {
			if got[g][i] != got[0][i] {
				t.Fatalf("%v: the memo returned distinct instances", k)
			}
		}
		want, err := serial.Validate(k.target, k.bench, k.class, k.ck)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got[0][i]) {
			t.Errorf("%v: validation differs between serial and parallel runners", k)
		}
	}
	if testing.Short() {
		return
	}

	// Figures are assembled in the paper's fixed order from the memo.
	fs, err := serial.LUFigure()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := parallel.LUFigure()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, fp) {
		t.Errorf("LU figure differs between serial and parallel runners:\nserial:   %+v\nparallel: %+v", fs, fp)
	}
}

func TestVerboseHook(t *testing.T) {
	r := NewRunner()
	var lines []string
	r.Verbose = func(format string, args ...any) {
		lines = append(lines, format)
	}
	r.logf("hello %s", "world")
	if len(lines) != 1 || !strings.Contains(lines[0], "hello") {
		t.Error("verbose hook not invoked")
	}
}
