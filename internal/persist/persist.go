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
package persist

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/hpm"
	"repro/internal/imb"
	"repro/internal/mpi"
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

// checkSamples validates one sweep: sizes non-negative (MPI_Barrier has no
// message size and is recorded at 0 bytes) and strictly increasing, seconds
// finite and non-negative. The ordering matters — downstream interpolation
// binary-searches the sorted sample list, and duplicates would silently
// collapse when rebuilt into a map.
func checkSamples(what string, es []sizeEntry) error {
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
