package report

import (
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/quality"
)

// ProjectionJSON is the machine-readable form of a projection — the
// /v1/project wire format of the swappd service and the JSON twin of the
// Projection text report. Every number is the raw float64 the text report
// formats, so API consumers see exactly the CLI's values.
//
// Determinism contract: field order is fixed by the struct, per-class
// sections are emitted in ClassOrder (never map order), and routines appear
// in the core.CommProjection's sorted routine order, so marshalling the
// same projection twice yields byte-identical documents.
type ProjectionJSON struct {
	App            string  `json:"app"`
	Target         string  `json:"target"`
	Ranks          int     `json:"ranks"`
	TotalSeconds   float64 `json:"total_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	Gamma          float64 `json:"gamma"`
	HyperScaled    bool    `json:"hyper_scaled"`

	Compute    *ComputeJSON    `json:"compute,omitempty"`
	Comm       *CommJSON       `json:"comm,omitempty"`
	Validation *ValidationJSON `json:"validation,omitempty"`

	// Quality is present only when the projection is degraded: a
	// full-fidelity run omits the block entirely, keeping its wire bytes
	// identical to an engine without the quality ledger.
	Quality *QualityJSON `json:"quality,omitempty"`
}

// QualityJSON is the wire form of a degraded projection's quality ledger:
// per-component confidence grades (A = full fidelity, B = minor fallbacks,
// C = a major fallback) and the defect list, sorted deterministically.
type QualityJSON struct {
	Grade        string           `json:"grade"`
	ComputeGrade string           `json:"compute_grade"`
	CommGrade    string           `json:"comm_grade"`
	Defects      []quality.Defect `json:"defects"`
}

// SurrogateTermJSON is one Eq. 2 surrogate member.
type SurrogateTermJSON struct {
	Bench  string  `json:"bench"`
	Weight float64 `json:"weight"`
}

// ComputeJSON is the §2.3 compute component.
type ComputeJSON struct {
	CharCount     int                 `json:"char_count"`
	Fitness       float64             `json:"fitness"`
	BaseSeconds   float64             `json:"base_seconds"`
	TargetSeconds float64             `json:"target_seconds"`
	SpeedupRatio  float64             `json:"speedup_ratio"`
	Ranking       [6]int              `json:"ranking"`
	Surrogate     []SurrogateTermJSON `json:"surrogate"`
}

// RoutineJSON is one per-routine Eq. 4/5 decomposition, per task.
type RoutineJSON struct {
	Routine        string  `json:"routine"`
	Class          string  `json:"class"`
	Calls          float64 `json:"calls"`
	BaseElapsed    float64 `json:"base_elapsed_seconds"`
	BaseTransfer   float64 `json:"base_transfer_seconds"`
	BaseWait       float64 `json:"base_wait_seconds"`
	TargetTransfer float64 `json:"target_transfer_seconds"`
	TargetWait     float64 `json:"target_wait_seconds"`
	TargetElapsed  float64 `json:"target_elapsed_seconds"`
}

// ClassSecondsJSON is one routine class's base/target per-task seconds.
type ClassSecondsJSON struct {
	Class         string  `json:"class"`
	BaseSeconds   float64 `json:"base_seconds"`
	TargetSeconds float64 `json:"target_seconds"`
}

// CommJSON is the §2.4 communication component.
type CommJSON struct {
	Ranks              int                `json:"ranks"`
	WaitScale          float64            `json:"wait_scale"`
	BaseTotalSeconds   float64            `json:"base_total_seconds"`
	TargetTotalSeconds float64            `json:"target_total_seconds"`
	Routines           []RoutineJSON      `json:"routines"`
	ByClass            []ClassSecondsJSON `json:"by_class"`
}

// ClassErrorJSON is one per-class signed validation error.
type ClassErrorJSON struct {
	Class  string  `json:"class"`
	ErrPct float64 `json:"err_pct"`
}

// ValidationJSON is the measured side and its signed percent errors.
type ValidationJSON struct {
	MeasuredTotalSeconds   float64          `json:"measured_total_seconds"`
	MeasuredComputeSeconds float64          `json:"measured_compute_seconds"`
	MeasuredCommSeconds    float64          `json:"measured_comm_seconds"`
	ErrCombinedPct         float64          `json:"err_combined_pct"`
	ErrComputePct          float64          `json:"err_compute_pct"`
	ErrCommPct             float64          `json:"err_comm_pct"`
	ByClass                []ClassErrorJSON `json:"by_class"`
}

// ClassOrder is the fixed rendering order of routine classes, shared by the
// text report and the JSON form: CommProjection's by-class accessors return
// maps, and map iteration order must never reach an output.
var ClassOrder = []mpi.Class{mpi.ClassP2PNB, mpi.ClassP2PB, mpi.ClassCollective}

// newProjectionJSON converts a projection (and optional validation) into
// its wire form. All per-class maps are iterated in ClassOrder.
func newProjectionJSON(p *core.Projection, v *core.Validation) *ProjectionJSON {
	out := &ProjectionJSON{
		App:            p.App,
		Target:         p.Target,
		Ranks:          p.Ck,
		TotalSeconds:   p.Total,
		ComputeSeconds: p.ComputeTime,
		CommSeconds:    p.CommTime,
		Gamma:          p.Gamma,
		HyperScaled:    p.HyperScaled,
	}
	if c := p.Compute; c != nil {
		cj := &ComputeJSON{
			CharCount:     c.CharCount,
			Fitness:       c.Fitness,
			BaseSeconds:   c.BaseTime,
			TargetSeconds: c.TargetTime,
			SpeedupRatio:  c.SpeedupRatio(),
			Ranking:       c.Ranking,
		}
		for _, term := range c.Surrogate {
			cj.Surrogate = append(cj.Surrogate, SurrogateTermJSON{Bench: term.Bench, Weight: term.Weight})
		}
		out.Compute = cj
	}
	if c := p.Comm; c != nil {
		cj := &CommJSON{
			Ranks:              c.Ranks,
			WaitScale:          c.WaitScale,
			BaseTotalSeconds:   c.BaseTotal(),
			TargetTotalSeconds: c.TargetTotal(),
		}
		for _, rp := range c.Routines {
			cj.Routines = append(cj.Routines, RoutineJSON{
				Routine:        string(rp.Routine),
				Class:          string(rp.Class),
				Calls:          rp.Calls,
				BaseElapsed:    rp.BaseElapsed,
				BaseTransfer:   rp.BaseTransfer,
				BaseWait:       rp.BaseWait,
				TargetTransfer: rp.TargetTransfer,
				TargetWait:     rp.TargetWait,
				TargetElapsed:  rp.TargetElapsed(),
			})
		}
		base, tgt := c.BaseByClass(), c.TargetByClass()
		for _, cls := range ClassOrder {
			b, okB := base[cls]
			t, okT := tgt[cls]
			if !okB && !okT {
				continue
			}
			cj.ByClass = append(cj.ByClass, ClassSecondsJSON{
				Class: string(cls), BaseSeconds: b, TargetSeconds: t,
			})
		}
		out.Comm = cj
	}
	if v != nil {
		vj := &ValidationJSON{
			MeasuredTotalSeconds:   v.MeasuredTotal,
			MeasuredComputeSeconds: v.MeasuredCompute,
			MeasuredCommSeconds:    v.MeasuredComm,
			ErrCombinedPct:         v.ErrCombined,
			ErrComputePct:          v.ErrCompute,
			ErrCommPct:             v.ErrComm,
		}
		for _, cls := range ClassOrder {
			if e, ok := v.ErrByClass[cls]; ok {
				vj.ByClass = append(vj.ByClass, ClassErrorJSON{Class: string(cls), ErrPct: e})
			}
		}
		out.Validation = vj
	}
	if q := p.Quality; !q.Empty() {
		out.Quality = &QualityJSON{
			Grade:        string(q.Grade()),
			ComputeGrade: string(q.ComponentGrade(quality.Compute)),
			CommGrade:    string(q.ComponentGrade(quality.Comm)),
			Defects:      q.Defects(),
		}
	}
	return out
}

// MarshalProjection renders the wire form with a trailing newline — the
// exact bytes swappd serves, shared with tests that pin API/CLI parity.
// Marshalling goes through the pooled encoder (see marshalJSONLine) so the
// serving path reuses encode buffers; the bytes are unchanged.
func MarshalProjection(p *core.Projection, v *core.Validation) ([]byte, error) {
	return marshalJSONLine(newProjectionJSON(p, v))
}
