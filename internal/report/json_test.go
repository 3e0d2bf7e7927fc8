package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

// sampleProjection builds a synthetic projection exercising every section
// of the wire form: multiple routines across all three classes, a
// surrogate, and per-class validation errors.
func sampleProjection() (*core.Projection, *core.Validation) {
	comm := &core.CommProjection{
		Ranks:     16,
		WaitScale: 0.9,
		Routines: []*core.RoutineProjection{
			{Routine: mpi.RoutineAllreduce, Class: mpi.ClassCollective, Calls: 3,
				BaseElapsed: 0.4, BaseTransfer: 0.3, BaseWait: 0.1, TargetTransfer: 0.15, TargetWait: 0.09},
			{Routine: mpi.RoutineIsend, Class: mpi.ClassP2PNB, Calls: 10,
				BaseElapsed: 1.0, BaseTransfer: 0.7, BaseWait: 0.3, TargetTransfer: 0.35, TargetWait: 0.27},
			{Routine: mpi.RoutineSendrecv, Class: mpi.ClassP2PB, Calls: 5,
				BaseElapsed: 0.5, BaseTransfer: 0.5, BaseWait: 0, TargetTransfer: 0.25, TargetWait: 0},
			{Routine: mpi.RoutineWaitall, Class: mpi.ClassP2PNB, Calls: 10,
				BaseElapsed: 2.0, BaseTransfer: 1.2, BaseWait: 0.8, TargetTransfer: 0.6, TargetWait: 0.72},
		},
	}
	proj := &core.Projection{
		App:    "BT-MZ.C",
		Target: "power6-575",
		Ck:     16,
		Compute: &core.ComputeProjection{
			Surrogate: []core.SurrogateTerm{
				{Bench: "437.leslie3d", Weight: 0.6},
				{Bench: "410.bwaves", Weight: 0.4},
			},
			Fitness:   0.012,
			CharCount: 16,
			BaseTime:  10, TargetTime: 4,
			Ranking: [6]int{5, 2, 1, 3, 4, 6},
		},
		Gamma:       1,
		ComputeTime: 4,
		Comm:        comm,
		CommTime:    comm.TargetTotal(),
	}
	proj.Total = proj.ComputeTime + proj.CommTime
	v := &core.Validation{
		Proj:            proj,
		MeasuredTotal:   6.9,
		MeasuredCompute: 4.2,
		MeasuredComm:    2.7,
		ErrCombined:     -2.5,
		ErrCompute:      -4.7,
		ErrComm:         1.2,
		ErrByClass: map[mpi.Class]float64{
			mpi.ClassP2PNB:      3.0,
			mpi.ClassP2PB:       -1.0,
			mpi.ClassCollective: 0.5,
		},
	}
	return proj, v
}

func TestProjectionJSONShape(t *testing.T) {
	proj, v := sampleProjection()
	j := newProjectionJSON(proj, v)

	if j.App != "BT-MZ.C" || j.Target != "power6-575" || j.Ranks != 16 {
		t.Errorf("identity fields wrong: %+v", j)
	}
	if j.TotalSeconds != proj.Total || j.ComputeSeconds != proj.ComputeTime || j.CommSeconds != proj.CommTime {
		t.Error("top-level seconds do not match the projection")
	}
	if j.Compute == nil || j.Compute.SpeedupRatio != 0.4 || len(j.Compute.Surrogate) != 2 {
		t.Errorf("compute section wrong: %+v", j.Compute)
	}
	if j.Comm == nil || len(j.Comm.Routines) != 4 {
		t.Fatalf("comm section wrong: %+v", j.Comm)
	}
	if j.Comm.TargetTotalSeconds != proj.Comm.TargetTotal() || j.Comm.BaseTotalSeconds != proj.Comm.BaseTotal() {
		t.Error("comm totals do not match")
	}
	// Per-class sections appear in the fixed ClassOrder, never map order.
	wantOrder := []string{"P2P-NB", "P2P-B", "COLLECTIVES"}
	if len(j.Comm.ByClass) != 3 {
		t.Fatalf("by_class has %d entries", len(j.Comm.ByClass))
	}
	base, tgt := proj.Comm.BaseByClass(), proj.Comm.TargetByClass()
	for i, cs := range j.Comm.ByClass {
		if cs.Class != wantOrder[i] {
			t.Errorf("by_class[%d] = %s, want %s", i, cs.Class, wantOrder[i])
		}
		cls := mpi.Class(cs.Class)
		if cs.BaseSeconds != base[cls] || cs.TargetSeconds != tgt[cls] {
			t.Errorf("by_class[%s] = (%v,%v), want (%v,%v)", cs.Class, cs.BaseSeconds, cs.TargetSeconds, base[cls], tgt[cls])
		}
	}
	if j.Validation == nil || len(j.Validation.ByClass) != 3 {
		t.Fatalf("validation section wrong: %+v", j.Validation)
	}
	for i, ce := range j.Validation.ByClass {
		if ce.Class != wantOrder[i] {
			t.Errorf("validation by_class[%d] = %s, want %s", i, ce.Class, wantOrder[i])
		}
	}
	// Without a validation the section is omitted entirely.
	bare, err := json.Marshal(newProjectionJSON(proj, nil))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(bare, []byte("validation")) {
		t.Error("nil validation must omit the validation key")
	}
}

// TestProjectionOutputDeterministic is the map-order determinism pin for
// every by-class consumer: TargetByClass/BaseByClass/ErrByClass return
// maps, and both the text report and the JSON form must iterate them in
// the fixed ClassOrder. Repeated renders must be byte-identical — with map
// iteration this fails probabilistically within a few dozen rounds.
func TestProjectionOutputDeterministic(t *testing.T) {
	proj, v := sampleProjection()
	wantText := Projection(proj, v)
	wantJSON, err := MarshalProjection(proj, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got := Projection(proj, v); got != wantText {
			t.Fatalf("text report drifted on render %d:\n%s\nvs\n%s", i, got, wantText)
		}
		gotJSON, err := MarshalProjection(proj, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("JSON report drifted on render %d:\n%s\nvs\n%s", i, gotJSON, wantJSON)
		}
	}
}
