package swapp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestMachines(t *testing.T) {
	if len(MachineNames()) != 4 {
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
		{"one rank", Request{Target: TargetPower6, Bench: LU, Class: ClassC, Ranks: 1}},
		{"too many ranks", Request{Target: TargetPower6, Bench: LU, Class: ClassC, Ranks: 64}},
		{"more ranks than the target's cores", Request{Target: TargetPower6, Bench: BT, Class: ClassC, Ranks: 256}},
		{"more ranks than the base's cores", Request{Target: "bgp", Bench: BT, Class: ClassD, Ranks: 1024}},
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
	if math.Abs(v.ErrCombined) > 30 {
		t.Errorf("projection error %.1f%% outside the acceptable regime", math.Abs(v.ErrCombined))
	}
	if !strings.Contains(res.String(), "measured") {
		t.Error("validated result string must mention the measurement")
	}
}

// TestComputedProjectionReportsGAProgress: a request that is computed runs
// its own whole GA search and reports it on its own Obs — three ensemble
// members of 64 + 120×62 scored genomes, 22 512 evaluations — even when a
// shared Store already holds every artifact an earlier request of the same
// cell filled.
func TestComputedProjectionReportsGAProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	req := Request{Target: TargetPower6, Bench: LU, Class: ClassC, Ranks: 16, Store: core.NewStore(core.StoreConfig{})}
	if _, err := ProjectContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.Obs = obs.New("warm")
	if _, err := ProjectAndValidateContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if n, _ := req.Obs.Metrics().Counter("ga.evaluations"); n != 22512 {
		t.Errorf("the computed request counted %d GA evaluations, want 22512", n)
	}
}

func TestNewEvaluation(t *testing.T) {
	if NewEvaluation() == nil {
		t.Fatal("NewEvaluation returned nil")
	}
}
