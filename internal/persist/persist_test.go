package persist

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/spec"
	"repro/internal/units"
)

func TestIMBRoundTrip(t *testing.T) {
	orig, err := imb.Run(arch.MustGet(arch.Hydra), 8, units.Pow2Sizes(64, 16*units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalIMB(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, ds, err := UnmarshalIMB(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("imbrun's table decoded with defects: %v", ds)
	}
	if back.Machine != orig.Machine || back.Ranks != orig.Ranks {
		t.Fatal("labels lost")
	}
	// Every consumable quantity must survive exactly.
	for rt, sizes := range orig.PerOp {
		for size, v := range sizes {
			if back.PerOp[rt][size] != v {
				t.Fatalf("%s@%d: %v != %v", rt, size, back.PerOp[rt][size], v)
			}
		}
	}
	for _, size := range orig.Sizes {
		if back.InFlightIntra(size) != orig.InFlightIntra(size) ||
			back.InFlightInter(size) != orig.InFlightInter(size) {
			t.Fatalf("Eq. 1 fits lost at %d B", size)
		}
	}
	if back.NBOverhead() != orig.NBOverhead() {
		t.Fatal("overhead lost")
	}
	// Interpolation behaves identically on the decoded table.
	a, _ := orig.Time(mpi.RoutineSendrecv, 1500)
	b, _ := back.Time(mpi.RoutineSendrecv, 1500)
	if a != b {
		t.Fatalf("interpolation diverges: %v vs %v", a, b)
	}
}

func TestIMBDeterministicEncoding(t *testing.T) {
	tab, err := imb.Run(arch.MustGet(arch.Hydra), 4, units.Pow2Sizes(64, 1024))
	if err != nil {
		t.Fatal(err)
	}
	a, err := MarshalIMB(tab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalIMB(tab)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("encoding must be byte-stable (sorted maps)")
	}
}

func TestIMBUnmarshalRejectsGarbage(t *testing.T) {
	if _, _, err := UnmarshalIMB([]byte("{")); err == nil {
		t.Error("syntax error must fail")
	}
	if _, _, err := UnmarshalIMB([]byte(`{"machine":"","ranks":0}`)); err == nil {
		t.Error("incomplete table must fail")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	results, err := spec.RunSuite(arch.MustGet(arch.Power6), true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSpec(arch.Power6, results)
	if err != nil {
		t.Fatal(err)
	}
	machine, back, ds, err := UnmarshalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("specrun's suite decoded with defects: %v", ds)
	}
	if machine != arch.Power6 || len(back) != len(results) {
		t.Fatalf("suite lost: %s, %d results", machine, len(back))
	}
	for name, r := range results {
		br := back[name]
		if br.ST != r.ST || br.SMT != r.SMT {
			t.Fatalf("%s: counters lost", name)
		}
	}
	// The encoding lists benchmarks in suite order.
	if !strings.Contains(string(data), "400.perlbench") {
		t.Error("missing pool member in encoding")
	}
	first := strings.Index(string(data), "400.perlbench")
	last := strings.Index(string(data), "482.sphinx3")
	if first < 0 || last < 0 || first > last {
		t.Error("suite order not preserved in encoding")
	}
}

func TestSpecUnmarshalRejectsGarbage(t *testing.T) {
	if _, _, _, err := UnmarshalSpec([]byte("[]")); err == nil {
		t.Error("wrong shape must fail")
	}
	if _, _, _, err := UnmarshalSpec([]byte(`{"machine":"x","results":[{"bench":""}]}`)); err == nil {
		t.Error("nameless result must fail")
	}
}
