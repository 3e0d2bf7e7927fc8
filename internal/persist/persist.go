// Package persist serializes the artifacts SWAPP exchanges between sites:
// IMB parameter tables and SPEC results ("published benchmark data" for a
// target machine one cannot access). The paper assumes exactly this
// workflow — projections are made from *published* target data — so the
// wire format is part of the system: cmd/imbrun and cmd/specrun print it,
// and cmd/swapp's -imb-* and -spec-* flags read it.
//
// The format is plain JSON, stable across runs (maps are serialized as
// sorted arrays), and round-trips exactly for the quantities the
// projection consumes.
//
// Each document kind has one decoder, UnmarshalIMB or UnmarshalSpec, and
// one rule: a document is well-formed if imbrun or specrun could have
// written it with whole entries left out. A malformed document — bad JSON,
// a non-finite or negative value, a nameless or repeated entry, a broken
// size grid, a routine or fit with no samples, a SPEC row with no runtime
// — is refused with an error; nothing is dropped or guessed at. A partial
// one decodes, with a quality.Defect for each gap the decoder can see: a
// single-size grid, or a SPEC row without its SMT column (the ST counters
// stand in). Entries left out altogether — counts, routines, benchmarks,
// grid sizes — are found by the projection that reads them (internal/core).
package persist

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/hpm"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/quality"
	"repro/internal/spec"
	"repro/internal/units"
)

// --- IMB tables -------------------------------------------------------------

// sizeEntry is one (size, seconds) sample.
type sizeEntry struct {
	Bytes   units.Bytes   `json:"bytes"`
	Seconds units.Seconds `json:"seconds"`
}

// routineSamples is one routine's sweep.
type routineSamples struct {
	Routine mpi.Routine `json:"routine"`
	Samples []sizeEntry `json:"samples"`
}

// nbFitJSON mirrors imb.NBFit.
type nbFitJSON struct {
	Overhead units.Seconds `json:"overhead"`
	InFlight []sizeEntry   `json:"in_flight"`
}

// imbTableJSON is the stable wire form of an imb.Table.
type imbTableJSON struct {
	Machine string           `json:"machine"`
	Ranks   int              `json:"ranks"`
	Sizes   []units.Bytes    `json:"sizes"`
	PerOp   []routineSamples `json:"per_op"`
	NBIntra nbFitJSON        `json:"nb_intra"`
	NBInter nbFitJSON        `json:"nb_inter"`
}

// sortedSamples converts a size-keyed map to a sorted sample list.
func sortedSamples(m map[units.Bytes]units.Seconds) []sizeEntry {
	out := make([]sizeEntry, 0, len(m))
	for b, s := range m {
		out = append(out, sizeEntry{Bytes: b, Seconds: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes < out[j].Bytes })
	return out
}

// mapOf inverts sortedSamples.
func mapOf(es []sizeEntry) map[units.Bytes]units.Seconds {
	m := make(map[units.Bytes]units.Seconds, len(es))
	for _, e := range es {
		m[e.Bytes] = e.Seconds
	}
	return m
}

// MarshalIMB encodes an IMB table as deterministic JSON.
func MarshalIMB(t *imb.Table) ([]byte, error) {
	j := imbTableJSON{
		Machine: t.Machine,
		Ranks:   t.Ranks,
		Sizes:   t.Sizes,
		NBIntra: nbFitJSON{Overhead: t.NBIntra.Overhead, InFlight: sortedSamples(t.NBIntra.InFlight)},
		NBInter: nbFitJSON{Overhead: t.NBInter.Overhead, InFlight: sortedSamples(t.NBInter.InFlight)},
	}
	for _, rt := range t.Routines() {
		j.PerOp = append(j.PerOp, routineSamples{Routine: rt, Samples: sortedSamples(t.PerOp[rt])})
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalIMB decodes an IMB table document. It refuses a malformed one:
// an incomplete header, a size grid that is not positive and strictly
// increasing, a nameless or repeated routine, a routine or non-blocking fit
// with no samples, and negative or non-finite seconds. A single-size grid
// is partial: the table decodes with an imb-single-point-grid defect.
func UnmarshalIMB(data []byte) (*imb.Table, []quality.Defect, error) {
	var j imbTableJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, nil, fmt.Errorf("persist: bad IMB table: %w", err)
	}
	if j.Machine == "" || j.Ranks < 2 || len(j.Sizes) == 0 {
		return nil, nil, fmt.Errorf("persist: incomplete IMB table (machine %q, %d ranks, %d sizes)",
			j.Machine, j.Ranks, len(j.Sizes))
	}
	prev := units.Bytes(0)
	for i, s := range j.Sizes {
		if s <= prev {
			return nil, nil, fmt.Errorf("persist: IMB size grid entry %d: sizes must be positive and strictly increasing (%d after %d)",
				i, s, prev)
		}
		prev = s
	}
	if err := checkNBFit("nb_intra", j.NBIntra); err != nil {
		return nil, nil, err
	}
	if err := checkNBFit("nb_inter", j.NBInter); err != nil {
		return nil, nil, err
	}
	t := &imb.Table{
		Machine: j.Machine,
		Ranks:   j.Ranks,
		Sizes:   j.Sizes,
		PerOp:   make(map[mpi.Routine]map[units.Bytes]units.Seconds, len(j.PerOp)),
		NBIntra: imb.NBFit{Overhead: j.NBIntra.Overhead, InFlight: mapOf(j.NBIntra.InFlight)},
		NBInter: imb.NBFit{Overhead: j.NBInter.Overhead, InFlight: mapOf(j.NBInter.InFlight)},
	}
	for _, rs := range j.PerOp {
		if rs.Routine == "" {
			return nil, nil, fmt.Errorf("persist: IMB per_op entry without a routine name")
		}
		if _, dup := t.PerOp[rs.Routine]; dup {
			return nil, nil, fmt.Errorf("persist: duplicate IMB per_op entry for %s", rs.Routine)
		}
		if err := checkSamples("per_op."+string(rs.Routine), rs.Samples); err != nil {
			return nil, nil, err
		}
		t.PerOp[rs.Routine] = mapOf(rs.Samples)
	}
	var defects []quality.Defect
	if len(j.Sizes) == 1 {
		defects = append(defects, quality.Defect{
			Code: quality.IMBSinglePointGrid, Component: quality.Data, Severity: quality.Major,
			Detail: fmt.Sprintf("%s/%d IMB grid has a single size (%s): every off-size lookup is a constant extrapolation",
				j.Machine, j.Ranks, units.FormatBytes(j.Sizes[0])),
		})
	}
	return t, defects, nil
}

// checkSamples validates one sweep: at least one sample (a partial table
// leaves a routine out rather than empty, and a fit has no "not measured"
// form), sizes non-negative (MPI_Barrier has no message size and is
// recorded at 0 bytes) and strictly increasing, seconds finite and
// non-negative. The ordering matters — downstream interpolation
// binary-searches the sorted sample list, and duplicates would silently
// collapse when rebuilt into a map.
func checkSamples(what string, es []sizeEntry) error {
	if len(es) == 0 {
		return fmt.Errorf("persist: %s has no samples", what)
	}
	prev := units.Bytes(-1)
	for i, e := range es {
		if e.Bytes < 0 || e.Bytes <= prev {
			return fmt.Errorf("persist: %s: sample %d: sizes must be non-negative and strictly increasing (%d after %d)",
				what, i, e.Bytes, prev)
		}
		if math.IsNaN(e.Seconds) || math.IsInf(e.Seconds, 0) || e.Seconds < 0 {
			return fmt.Errorf("persist: %s: sample %d (%d bytes): bad seconds %v", what, i, e.Bytes, e.Seconds)
		}
		prev = e.Bytes
	}
	return nil
}

// checkNBFit validates a non-blocking fit: finite non-negative overhead and
// a well-formed in-flight sweep.
func checkNBFit(what string, f nbFitJSON) error {
	if math.IsNaN(f.Overhead) || math.IsInf(f.Overhead, 0) || f.Overhead < 0 {
		return fmt.Errorf("persist: %s: bad overhead %v", what, f.Overhead)
	}
	return checkSamples(what+".in_flight", f.InFlight)
}

// --- SPEC results --------------------------------------------------------------

// specResultJSON is the wire form of one benchmark observation.
type specResultJSON struct {
	Bench   string       `json:"bench"`
	Machine string       `json:"machine"`
	ST      hpm.Counters `json:"st"`
	SMT     hpm.Counters `json:"smt"`
}

// specSuiteJSON is a whole suite's results on one machine.
type specSuiteJSON struct {
	Machine string           `json:"machine"`
	Results []specResultJSON `json:"results"`
}

// MarshalSpec encodes a SPEC result set as deterministic JSON (suite
// order).
func MarshalSpec(machine string, results map[string]spec.Result) ([]byte, error) {
	j := specSuiteJSON{Machine: machine}
	for _, name := range spec.SortedNames(results) {
		r := results[name]
		j.Results = append(j.Results, specResultJSON{
			Bench: r.Bench, Machine: r.Machine, ST: r.ST, SMT: r.SMT,
		})
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalSpec decodes a SPEC result document. It refuses a malformed
// one: an incomplete header, a nameless or repeated benchmark, a negative or
// non-finite counter, and an ST runtime that is not positive (the runtime
// is what the projection scales by). A row whose SMT column is all zero is
// partial: the ST counters stand in, with a missing-counter-group defect.
func UnmarshalSpec(data []byte) (machine string, results map[string]spec.Result, defects []quality.Defect, err error) {
	var j specSuiteJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return "", nil, nil, fmt.Errorf("persist: bad SPEC results: %w", err)
	}
	if j.Machine == "" || len(j.Results) == 0 {
		return "", nil, nil, fmt.Errorf("persist: incomplete SPEC results")
	}
	results = make(map[string]spec.Result, len(j.Results))
	for _, r := range j.Results {
		if r.Bench == "" {
			return "", nil, nil, fmt.Errorf("persist: SPEC result without a name")
		}
		if _, dup := results[r.Bench]; dup {
			return "", nil, nil, fmt.Errorf("persist: duplicate SPEC result for %s", r.Bench)
		}
		if err := checkCounters(r.Bench+".st", &r.ST); err != nil {
			return "", nil, nil, err
		}
		if r.ST.Runtime <= 0 {
			return "", nil, nil, fmt.Errorf("persist: %s.st: runtime %v is not positive", r.Bench, r.ST.Runtime)
		}
		if err := checkCounters(r.Bench+".smt", &r.SMT); err != nil {
			return "", nil, nil, err
		}
		if zeroCounters(&r.SMT) {
			defects = append(defects, quality.Defect{
				Code: quality.MissingCounterGroup, Component: quality.Data, Severity: quality.Minor,
				Detail: fmt.Sprintf("%s on %s: SMT counter group absent, ST substituted (hyperthreading scaling degrades to 1x)",
					r.Bench, j.Machine),
			})
			r.SMT = r.ST
		}
		results[r.Bench] = spec.Result{Bench: r.Bench, Machine: r.Machine, ST: r.ST, SMT: r.SMT}
	}
	return j.Machine, results, defects, nil
}

// checkCounters validates one counter observation: every metric of the
// canonical vector plus the derived totals must be finite and non-negative
// (counter rates cannot be negative; NaN/Inf would silently corrupt the
// metric-group ranking downstream).
func checkCounters(what string, c *hpm.Counters) error {
	vals := append(c.Vector(), c.Instructions, c.CPI, c.Runtime)
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("persist: %s: bad counter value %v (index %d)", what, v, i)
		}
	}
	return nil
}

// zeroCounters reports an all-zero observation — the shape of a counter
// group the collector never populated.
func zeroCounters(c *hpm.Counters) bool {
	for _, v := range append(c.Vector(), c.Instructions, c.CPI, c.Runtime) {
		if v != 0 {
			return false
		}
	}
	return true
}
