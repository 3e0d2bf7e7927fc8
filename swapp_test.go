package swapp

import (
	"strings"
	"testing"
)

func TestMachines(t *testing.T) {
	if len(Machines()) != 4 || len(MachineNames()) != 4 {
		t.Fatalf("expected the four Table 2 machines, got %v", MachineNames())
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown target", Request{Target: "cray", Bench: BT, Class: ClassC, Ranks: 16}},
		{"unknown base", Request{Base: "x", Target: TargetPower6, Bench: BT, Class: ClassC, Ranks: 16}},
		{"target equals base", Request{Base: BaseHydra, Target: BaseHydra, Bench: BT, Class: ClassC, Ranks: 16}},
		{"zero ranks", Request{Target: TargetPower6, Bench: BT, Class: ClassC, Ranks: 0}},
		{"too many ranks", Request{Target: TargetPower6, Bench: LU, Class: ClassC, Ranks: 64}},
		{"unknown bench", Request{Target: TargetPower6, Bench: "FT-MZ", Class: ClassC, Ranks: 16}},
	}
	for _, c := range cases {
		if _, err := Project(c.req); err == nil {
			t.Errorf("%s: invalid request accepted", c.name)
		}
	}
}

func TestProjectEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	res, err := Project(Request{
		Target: TargetPower6,
		Bench:  LU, Class: ClassC, Ranks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSeconds() <= 0 {
		t.Fatal("non-positive projection")
	}
	if res.Validation != nil {
		t.Error("Project must not validate")
	}
	s := res.String()
	for _, frag := range []string{"LU-MZ.C", "power6-575", "projected"} {
		if !strings.Contains(s, frag) {
			t.Errorf("result string %q missing %q", s, frag)
		}
	}
	p := res.Projection
	if p.Compute == nil || p.Comm == nil {
		t.Fatal("projection components missing")
	}
	if p.Total != p.ComputeTime+p.CommTime {
		t.Error("total must be the component sum")
	}
}

func TestProjectAndValidateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	res, err := ProjectAndValidate(Request{
		Target: TargetWestmere,
		Bench:  LU, Class: ClassC, Ranks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Validation
	if v == nil {
		t.Fatal("validation missing")
	}
	if v.MeasuredTotal <= 0 {
		t.Fatal("measured run missing")
	}
	// The reproduction's acceptance envelope: well inside the paper's
	// error regime (they report ≤15 % max; we allow slack for this
	// single case).
	if v.AbsErrCombined() > 30 {
		t.Errorf("projection error %.1f%% outside the acceptable regime", v.AbsErrCombined())
	}
	if !strings.Contains(res.String(), "measured") {
		t.Error("validated result string must mention the measurement")
	}
}

func TestCharCountsFor(t *testing.T) {
	counts := charCountsFor(BT, ClassC, 96)
	want := map[int]bool{16: true, 32: true, 64: true, 96: true, 128: true}
	if len(counts) != len(want) {
		t.Fatalf("charCountsFor = %v", counts)
	}
	for _, c := range counts {
		if !want[c] {
			t.Fatalf("unexpected count %d in %v", c, counts)
		}
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatal("counts must be ascending")
		}
	}
	lu := charCountsFor(LU, ClassC, 16)
	for _, c := range lu {
		if c > 16 {
			t.Errorf("LU-MZ cannot profile at %d ranks", c)
		}
	}
}

func TestNewEvaluation(t *testing.T) {
	if NewEvaluation() == nil {
		t.Fatal("NewEvaluation returned nil")
	}
}
