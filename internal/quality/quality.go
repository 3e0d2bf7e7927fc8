// Package quality is SWAPP's data-fidelity ledger. The framework's whole
// premise is producing projections from imperfect, externally-sourced
// inputs — published SPEC tables, IMB sweeps, hardware-counter profiles —
// that in practice arrive truncated, partially missing, or noisy. Instead
// of failing on the first defect, the engine records what was wrong and
// which documented fallback it substituted, and every projection carries
// the resulting Report so a caller can tell a full-fidelity answer from a
// degraded one.
//
// A Defect names one concrete problem (a taxonomy Code), the projection
// component it degrades (compute, communication, or the shared input
// data), a severity, and a human-readable detail. A Report aggregates
// defects — deduplicated, concurrency-safe, and rendered in a fixed sort
// order so reports are deterministic — and grades each component:
//
//	A  full fidelity: no defects touch the component
//	B  documented minor fallbacks only (e.g. grid-edge extrapolation)
//	C  at least one major fallback (e.g. a routine priced as pure wait)
//
// The zero-defect path costs nothing at render time: an empty Report is
// omitted from the wire form entirely, so full-fidelity output is
// byte-identical to an engine without this package.
package quality

import (
	"fmt"
	"sort"
	"sync"
)

// Code names one defect class in the taxonomy (DESIGN.md §11).
type Code string

// The defect taxonomy. Codes are part of the wire format: once published
// they may gain siblings but must not be renamed.
const (
	// MissingSpecBench: a benchmark present in the base-machine SPEC pool
	// has no counterpart on the target. Fallback: the surrogate pool
	// shrinks to the intersection.
	MissingSpecBench Code = "missing-spec-bench"
	// MissingCounterGroup: a counter observation lacked a group (e.g. the
	// SMT column of a SPEC row). Fallback: the ST observation substitutes.
	MissingCounterGroup Code = "missing-counter-group"
	// IMBGridGap: an IMB size grid has holes or a truncated tail, so a
	// message-size lookup extrapolated from the nearest covered samples.
	IMBGridGap Code = "imb-grid-gap"
	// IMBSinglePointGrid: an IMB table carries a single size sample; all
	// size dependence is lost and every lookup returns that sample.
	IMBSinglePointGrid Code = "imb-single-point-grid"
	// MissingIMBRoutine: a routine sweep was absent or empty in a loaded
	// IMB table.
	MissingIMBRoutine Code = "missing-imb-routine"
	// MissingIMBCount: one side of the machine pair has no IMB table at a
	// core count the other side covers.
	MissingIMBCount Code = "missing-imb-count"
	// IMBCountFallback: the projection needed IMB tables at a core count
	// the pipeline does not hold and substituted the nearest held count.
	IMBCountFallback Code = "imb-count-fallback"
	// DroppedMPIRoutine: a profiled MPI routine could not be priced on the
	// benchmark tables. Fallback: its elapsed time is treated as pure
	// WaitTime and scaled by the wait-scale factor.
	DroppedMPIRoutine Code = "dropped-mpi-routine"
	// GAQuarantine: one or more surrogate-search fitness evaluations
	// panicked (or were fault-injected) and were quarantined with worst
	// fitness instead of killing the run.
	GAQuarantine Code = "ga-quarantine"
	// WaitScaleDefault: the wait-scale blend had no usable compute ratio
	// and defaulted to 1 (base WaitTime carried over unscaled).
	WaitScaleDefault Code = "wait-scale-default"
	// DuplicateEntry: a loaded artifact repeated a key (benchmark,
	// routine); the first occurrence won.
	DuplicateEntry Code = "duplicate-entry"
	// CorruptEntry: a loaded artifact entry carried non-finite or negative
	// values and was dropped.
	CorruptEntry Code = "corrupt-entry"
)

// Component names the projection component a defect degrades.
type Component string

const (
	// Data defects live in the shared inputs and degrade both components.
	Data Component = "data"
	// Compute defects degrade the §2.3 compute projection.
	Compute Component = "compute"
	// Comm defects degrade the §2.4 communication projection.
	Comm Component = "comm"
)

// Severity ranks how far a fallback strays from full fidelity.
type Severity string

const (
	// Minor: a documented interpolation-class fallback; the answer is
	// still anchored to measured data.
	Minor Severity = "minor"
	// Major: a whole input was substituted or dropped; treat the affected
	// component's numbers as indicative only.
	Major Severity = "major"
)

// Grade is a per-component confidence grade derived from the defect list.
type Grade string

const (
	GradeA Grade = "A" // full fidelity
	GradeB Grade = "B" // minor fallbacks only
	GradeC Grade = "C" // at least one major fallback
)

// Defect is one recorded data problem plus the fallback the engine used.
type Defect struct {
	Code      Code      `json:"code"`
	Component Component `json:"component"`
	Severity  Severity  `json:"severity"`
	Detail    string    `json:"detail"`
}

// String renders the defect as a one-line ledger entry.
func (d Defect) String() string {
	return fmt.Sprintf("[%s/%s] %s: %s", d.Component, d.Severity, d.Code, d.Detail)
}

// Report aggregates the defects of one projection (or one loaded data
// set). The zero value is not usable; create with NewReport. A nil
// *Report is valid everywhere and records nothing, so code paths that do
// not care about quality can pass nil.
type Report struct {
	mu      sync.Mutex
	defects []Defect
	seen    map[string]bool
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{seen: map[string]bool{}}
}

// Add records a defect, deduplicating exact repeats (same code, component
// and detail) so per-lookup recording cannot balloon the report. Safe for
// concurrent use; a nil receiver drops the defect.
func (r *Report) Add(d Defect) {
	if r == nil {
		return
	}
	key := string(d.Code) + "|" + string(d.Component) + "|" + d.Detail
	r.mu.Lock()
	if !r.seen[key] {
		r.seen[key] = true
		r.defects = append(r.defects, d)
	}
	r.mu.Unlock()
}

// AddAll records a batch of defects.
func (r *Report) AddAll(ds []Defect) {
	for _, d := range ds {
		r.Add(d)
	}
}

// Empty reports whether nothing was recorded (true for nil).
func (r *Report) Empty() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.defects) == 0
}

// Defects returns a sorted copy of the recorded defects: by component,
// then severity (major first), code, detail. The sort — not insertion
// order, which may be concurrent — is what makes rendered reports
// deterministic.
func (r *Report) Defects() []Defect {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Defect(nil), r.defects...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		if out[i].Severity != out[j].Severity {
			// "major" < "minor" lexically, so major sorts first for free.
			return out[i].Severity < out[j].Severity
		}
		if out[i].Code != out[j].Code {
			return out[i].Code < out[j].Code
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// Grade is the overall confidence grade: the worst component grade.
func (r *Report) Grade() Grade {
	return gradeOf(r.Defects(), "")
}

// ComponentGrade grades one projection component. Data defects count
// against every component: corrupt shared inputs degrade whatever is
// computed from them.
func (r *Report) ComponentGrade(c Component) Grade {
	return gradeOf(r.Defects(), c)
}

// gradeOf folds defects relevant to component (all of them when
// component is "") into a grade.
func gradeOf(ds []Defect, component Component) Grade {
	g := GradeA
	for _, d := range ds {
		if component != "" && d.Component != component && d.Component != Data {
			continue
		}
		if d.Severity == Major {
			return GradeC
		}
		g = GradeB
	}
	return g
}
