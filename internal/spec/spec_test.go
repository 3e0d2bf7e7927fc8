package spec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/units"
)

// byName finds a benchmark by its SPEC name.
func byName(name string) (*Benchmark, error) {
	for _, b := range suite {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("spec: unknown benchmark %q", name)
}

func TestSuiteComposition(t *testing.T) {
	var cint, cfp int
	seen := map[string]bool{}
	for _, b := range suite {
		if seen[b.Name()] {
			t.Errorf("duplicate benchmark %s", b.Name())
		}
		seen[b.Name()] = true
		switch b.Group {
		case CINT:
			cint++
			if b.Sig.FPFraction != 0 {
				t.Errorf("%s: integer benchmark with FP work", b.Name())
			}
		case CFP:
			cfp++
			if b.Sig.FPFraction <= 0.1 {
				t.Errorf("%s: FP benchmark with trivial FP mix", b.Name())
			}
		default:
			t.Errorf("%s: unknown group %q", b.Name(), b.Group)
		}
	}
	if cint != 12 || cfp != 17 {
		t.Errorf("suite = %d CINT + %d CFP, want 12 + 17", cint, cfp)
	}
}

func TestAllSignaturesValid(t *testing.T) {
	for _, b := range suite {
		if err := b.Sig.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := byName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if b.Group != CINT {
		t.Error("mcf is CINT")
	}
	if _, err := byName("999.nope"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestNamesOrdered(t *testing.T) {
	if len(suite) != 29 {
		t.Fatalf("len(suite) = %d", len(suite))
	}
	if first, last := suite[0].Name(), suite[len(suite)-1].Name(); first != "400.perlbench" || last != "482.sphinx3" {
		t.Errorf("suite ordering broken: %v … %v", first, last)
	}
}

func TestRunBenchmark(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	b, _ := byName("470.lbm")
	r, err := RunBenchmark(b, m, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime() <= 0 {
		t.Error("non-positive runtime")
	}
	if r.SMT.Runtime <= r.ST.Runtime {
		t.Error("an SMT thread sharing a core must be slower than ST")
	}
	if n := len(r.ST.Vector()) + len(r.SMT.Vector()); n != 2*hpm.NumMetrics {
		t.Errorf("character vector length %d, want %d", n, 2*hpm.NumMetrics)
	}
}

func TestRunBenchmarkNoSMTMachine(t *testing.T) {
	m := arch.MustGet(arch.BlueGene) // SMTWays == 1
	b, _ := byName("453.povray")
	r, err := RunBenchmark(b, m, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.SMT != r.ST {
		t.Error("machines without SMT must reuse the ST observation")
	}
}

func TestRunSuiteCoversPool(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	res, err := RunSuite(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 29 {
		t.Fatalf("suite results = %d", len(res))
	}
	for name, r := range res {
		if r.Bench != name || r.Machine != arch.Hydra {
			t.Errorf("%s: mislabeled result", name)
		}
	}
}

func TestSuiteSpansBehaviourSpace(t *testing.T) {
	// The GA needs diversity: the pool must contain both clearly
	// compute-bound and clearly memory-bound members on the base machine.
	m := arch.MustGet(arch.Hydra)
	res, err := RunSuite(m, false)
	if err != nil {
		t.Fatal(err)
	}
	var minStallShare, maxStallShare = 1.0, 0.0
	for _, r := range res {
		share := r.ST.CPIStallTotal / r.ST.CPI
		if share < minStallShare {
			minStallShare = share
		}
		if share > maxStallShare {
			maxStallShare = share
		}
	}
	if minStallShare > 0.35 {
		t.Errorf("no compute-bound member: min stall share %v", minStallShare)
	}
	if maxStallShare < 0.6 {
		t.Errorf("no memory-bound member: max stall share %v", maxStallShare)
	}
}

func TestRelativeBehaviourAcrossPool(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	mcf, _ := byName("429.mcf")
	povray, _ := byName("453.povray")
	rm, err := RunBenchmark(mcf, m, false, "")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := RunBenchmark(povray, m, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if rm.ST.CPI <= rp.ST.CPI {
		t.Error("mcf (pointer-chasing) must have much higher CPI than povray")
	}
	if rm.ST.DataFromLocal <= rp.ST.DataFromLocal {
		t.Error("mcf must reload from memory far more than povray")
	}
}

func TestSortedNames(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	res, err := RunSuite(m, false)
	if err != nil {
		t.Fatal(err)
	}
	names := SortedNames(res)
	if len(names) != 29 || names[0] != "400.perlbench" {
		t.Errorf("SortedNames broken: %v", names[:3])
	}
	for i, b := range suite {
		if names[i] != b.Name() {
			t.Fatalf("order diverges at %d: %s vs %s", i, names[i], b.Name())
		}
	}
}

func TestThroughputRuntimesPlausible(t *testing.T) {
	// SPEC ref runs take minutes to hours, not microseconds or days, on
	// every machine model (BG/P's 850 MHz embedded core sits at the slow
	// end).
	for _, name := range arch.Names() {
		m := arch.MustGet(name)
		res, err := RunSuite(m, false)
		if err != nil {
			t.Fatal(err)
		}
		for bn, r := range res {
			if r.Runtime() < 30 || r.Runtime() > 86400 {
				t.Errorf("%s on %s: implausible runtime %.3gs", bn, name, r.Runtime())
			}
			if math.IsNaN(r.Runtime()) {
				t.Errorf("%s on %s: NaN runtime", bn, name)
			}
		}
	}
}

func TestNameFormat(t *testing.T) {
	for _, b := range suite {
		if !strings.Contains(b.Name(), ".") {
			t.Errorf("benchmark %q missing SPEC number prefix", b.Name())
		}
	}
}

// Runtime returns the ST throughput-mode runtime, the score SWAPP's Eq. 2
// consumes.
func (r *Result) Runtime() units.Seconds { return r.ST.Runtime }
