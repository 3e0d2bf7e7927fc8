package swapp

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/imb"
	"repro/internal/quality"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/units"
)

// TestProjectSurvivesDegradedData is the engine half of the acceptance
// scenario from DESIGN.md §11: published target data that arrives degraded
// — a SPEC suite missing one row, IMB sweeps cut short above 64 KiB — fed
// through Request.Data like any published data. A projection still
// completes and reports the damage in its Quality block instead of failing.
func TestProjectSurvivesDegradedData(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	target := arch.MustGet(TargetPower6)
	suite, err := spec.RunSuite(target, true)
	if err != nil {
		t.Fatal(err)
	}
	delete(suite, spec.SortedNames(suite)[0])
	tables := map[int]*imb.Table{}
	for _, c := range []int{4, 8, 16} { // the counts LU-MZ.C@16 is characterised at
		tb, err := imb.Run(target, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		cutAbove(tb, 64*units.KiB)
		tables[c] = tb
	}

	res, err := Project(Request{
		Target: TargetPower6,
		Bench:  LU, Class: ClassC, Ranks: 16,
		Data: &core.PipelineData{SpecTarget: suite, IMBTarget: tables},
	})
	if err != nil {
		t.Fatalf("degraded projection must complete, got: %v", err)
	}
	if res.TotalSeconds() <= 0 {
		t.Fatal("non-positive degraded projection")
	}

	q := res.Projection.Quality
	if q.Empty() {
		t.Fatal("degraded data left an empty Quality block")
	}
	codes := map[quality.Code]bool{}
	for _, d := range q.Defects() {
		codes[d.Code] = true
	}
	if !codes[quality.MissingSpecBench] {
		t.Errorf("dropped SPEC benchmark not recorded: %v", q.Defects())
	}
	if !codes[quality.IMBGridGap] {
		t.Errorf("IMB lookups above the 64 KiB cut not recorded: %v", q.Defects())
	}
	if g := q.Grade(); g == quality.GradeA {
		t.Errorf("overall grade = %s with major defects present", g)
	}

	// The degradation surfaces to the operator at both report layers.
	if s := res.String(); !strings.Contains(s, "quality grade") {
		t.Errorf("result summary missing the quality grade:\n%s", s)
	}
	if full := report.Projection(res.Projection, nil); !strings.Contains(full, "quality: grade") {
		t.Errorf("full report missing the quality section:\n%s", full)
	}

	// Without Data, the same request runs clean again: degraded data
	// leaves no residue in package state.
	clean, err := Project(Request{
		Target: TargetPower6,
		Bench:  LU, Class: ClassC, Ranks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Projection.Quality.Empty() {
		t.Errorf("clean run after disarm carries defects: %v", clean.Projection.Quality.Defects())
	}
	if strings.Contains(clean.String(), "quality:") {
		t.Error("clean run prints a quality section")
	}
}

// cutAbove deletes t's samples above max in place and keeps its declared
// size grid: the shape of a sweep that was cut short.
func cutAbove(t *imb.Table, max units.Bytes) {
	ms := []map[units.Bytes]units.Seconds{t.NBIntra.InFlight, t.NBInter.InFlight}
	for _, m := range t.PerOp {
		ms = append(ms, m)
	}
	for _, m := range ms {
		for s := range m {
			if s > max {
				delete(m, s)
			}
		}
	}
}
