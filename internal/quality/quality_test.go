package quality

import (
	"sync"
	"testing"
)

func TestNilReportIsSafeAndEmpty(t *testing.T) {
	var r *Report
	r.Add(Defect{Code: MissingCounterGroup, Component: Compute, Severity: Minor})
	r.AddAll([]Defect{{Code: IMBGridGap}})
	if !r.Empty() {
		t.Error("nil report must be empty")
	}
	if got := r.Defects(); got != nil {
		t.Errorf("nil report defects = %v, want nil", got)
	}
	if g := r.Grade(); g != GradeA {
		t.Errorf("nil report grade = %s, want A", g)
	}
}

func TestAddDeduplicates(t *testing.T) {
	r := NewReport()
	d := Defect{Code: IMBGridGap, Component: Comm, Severity: Minor, Detail: "Bcast at 2MiB"}
	for i := 0; i < 100; i++ {
		r.Add(d)
	}
	if n := len(r.Defects()); n != 1 {
		t.Errorf("100 identical Adds left %d defects, want 1", n)
	}
	// A different detail is a distinct defect.
	d.Detail = "Bcast at 4MiB"
	r.Add(d)
	if n := len(r.Defects()); n != 2 {
		t.Errorf("distinct detail deduplicated away: %d defects, want 2", n)
	}
}

func TestDefectsSortedDeterministically(t *testing.T) {
	// Insert in a scrambled order; Defects must sort by component, then
	// severity (major first), code, detail.
	r := NewReport()
	r.Add(Defect{Code: IMBGridGap, Component: Comm, Severity: Minor, Detail: "z"})
	r.Add(Defect{Code: DroppedMPIRoutine, Component: Comm, Severity: Major, Detail: "a"})
	r.Add(Defect{Code: MissingSpecBench, Component: Data, Severity: Minor, Detail: "m"})
	r.Add(Defect{Code: MissingCounterGroup, Component: Compute, Severity: Minor, Detail: "q"})
	// Components sort lexically (comm < compute < data), severity major
	// first within a component.
	ds := r.Defects()
	want := []Code{DroppedMPIRoutine, IMBGridGap, MissingCounterGroup, MissingSpecBench}
	if len(ds) != len(want) {
		t.Fatalf("got %d defects, want %d", len(ds), len(want))
	}
	for i, c := range want {
		if ds[i].Code != c {
			t.Errorf("position %d: code %s, want %s (full order: %v)", i, ds[i].Code, c, ds)
		}
	}
	// Within a component, major sorts before minor.
	r2 := NewReport()
	r2.Add(Defect{Code: IMBGridGap, Component: Comm, Severity: Minor, Detail: "a"})
	r2.Add(Defect{Code: DroppedMPIRoutine, Component: Comm, Severity: Major, Detail: "b"})
	ds2 := r2.Defects()
	if ds2[0].Severity != Major {
		t.Errorf("major must sort first within a component, got %v", ds2)
	}
}

func TestGrades(t *testing.T) {
	clean := NewReport()
	if clean.Grade() != GradeA || clean.ComponentGrade(Compute) != GradeA {
		t.Error("empty report must grade A everywhere")
	}

	minorComm := NewReport()
	minorComm.Add(Defect{Code: IMBGridGap, Component: Comm, Severity: Minor})
	if g := minorComm.ComponentGrade(Comm); g != GradeB {
		t.Errorf("comm grade = %s, want B", g)
	}
	if g := minorComm.ComponentGrade(Compute); g != GradeA {
		t.Errorf("compute untouched by comm defect: grade %s, want A", g)
	}
	if g := minorComm.Grade(); g != GradeB {
		t.Errorf("overall grade = %s, want B", g)
	}

	majorData := NewReport()
	majorData.Add(Defect{Code: IMBSinglePointGrid, Component: Data, Severity: Major})
	// Data defects degrade every component.
	for _, c := range []Component{Compute, Comm} {
		if g := majorData.ComponentGrade(c); g != GradeC {
			t.Errorf("data major must grade %s as C, got %s", c, g)
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := NewReport()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Add(Defect{Code: IMBGridGap, Component: Comm, Severity: Minor, Detail: "same"})
				r.Add(Defect{Code: MissingCounterGroup, Component: Compute, Severity: Minor, Detail: "same"})
			}
		}()
	}
	wg.Wait()
	if n := len(r.Defects()); n != 2 {
		t.Errorf("concurrent duplicate adds left %d defects, want 2", n)
	}
}

func TestDefectString(t *testing.T) {
	d := Defect{Code: DroppedMPIRoutine, Component: Comm, Severity: Major, Detail: "MPI_Bcast not in base table"}
	want := "[comm/major] dropped-mpi-routine: MPI_Bcast not in base table"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
