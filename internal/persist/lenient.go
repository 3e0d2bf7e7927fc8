package persist

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/hpm"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/quality"
	"repro/internal/spec"
	"repro/internal/units"
)

// This file holds the lenient decoders behind degraded-mode projections
// (DESIGN.md §11), the package's only decoders. Where the strict ones the
// tests keep as their reference reject any corruption, these salvage what
// they can — dropping the corrupt rows, keeping the first of duplicates,
// substituting the ST counters for an absent SMT column — and return a quality.Defect per repair so the projection's
// Quality block can report exactly what was worked around. Damage that
// leaves nothing usable (unparseable JSON, an empty suite, a broken size
// grid) is still a hard error: there is no projection to degrade to.

// UnmarshalIMBLenient decodes an IMB table, salvaging partial data.
func UnmarshalIMBLenient(data []byte) (*imb.Table, []quality.Defect, error) {
	var defects []quality.Defect
	add := func(code quality.Code, sev quality.Severity, format string, args ...any) {
		defects = append(defects, quality.Defect{
			Code: code, Component: quality.Data, Severity: sev,
			Detail: fmt.Sprintf(format, args...),
		})
	}

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
	if len(j.Sizes) == 1 {
		add(quality.IMBSinglePointGrid, quality.Major,
			"%s/%d IMB grid has a single size (%s): every off-size lookup is a constant extrapolation",
			j.Machine, j.Ranks, units.FormatBytes(j.Sizes[0]))
	}

	t := &imb.Table{
		Machine: j.Machine,
		Ranks:   j.Ranks,
		Sizes:   j.Sizes,
		PerOp:   map[mpi.Routine]map[units.Bytes]units.Seconds{},
		NBIntra: imb.NBFit{InFlight: map[units.Bytes]units.Seconds{}},
		NBInter: imb.NBFit{InFlight: map[units.Bytes]units.Seconds{}},
	}
	loadFit := func(what string, f nbFitJSON) imb.NBFit {
		if err := checkNBFit(what, f); err != nil {
			add(quality.CorruptEntry, quality.Minor,
				"%s/%d %s fit dropped: %v", j.Machine, j.Ranks, what, err)
			return imb.NBFit{InFlight: map[units.Bytes]units.Seconds{}}
		}
		return imb.NBFit{Overhead: f.Overhead, InFlight: mapOf(f.InFlight)}
	}
	t.NBIntra = loadFit("nb_intra", j.NBIntra)
	t.NBInter = loadFit("nb_inter", j.NBInter)

	for _, rs := range j.PerOp {
		switch {
		case rs.Routine == "":
			add(quality.CorruptEntry, quality.Major, "%s/%d per_op entry without a routine name dropped", j.Machine, j.Ranks)
			continue
		case len(rs.Samples) == 0:
			add(quality.MissingIMBRoutine, quality.Major,
				"%s has no samples in the %s/%d IMB table", rs.Routine, j.Machine, j.Ranks)
			continue
		}
		if _, dup := t.PerOp[rs.Routine]; dup {
			add(quality.DuplicateEntry, quality.Minor,
				"duplicate %s entry in the %s/%d IMB table: first kept", rs.Routine, j.Machine, j.Ranks)
			continue
		}
		m := map[units.Bytes]units.Seconds{}
		prev := units.Bytes(-1)
		dropped := 0
		for _, e := range rs.Samples {
			if e.Bytes < 0 || e.Bytes <= prev ||
				math.IsNaN(e.Seconds) || math.IsInf(e.Seconds, 0) || e.Seconds < 0 {
				dropped++
				continue
			}
			m[e.Bytes] = e.Seconds
			prev = e.Bytes
		}
		if dropped > 0 {
			add(quality.CorruptEntry, quality.Major,
				"%d corrupt %s sample(s) dropped from the %s/%d IMB table", dropped, rs.Routine, j.Machine, j.Ranks)
		}
		if len(m) == 0 {
			add(quality.MissingIMBRoutine, quality.Major,
				"%s has no usable samples in the %s/%d IMB table", rs.Routine, j.Machine, j.Ranks)
			continue
		}
		t.PerOp[rs.Routine] = m
	}
	return t, defects, nil
}

// UnmarshalSpecLenient decodes a SPEC result set, salvaging partial data.
func UnmarshalSpecLenient(data []byte) (machine string, results map[string]spec.Result, defects []quality.Defect, err error) {
	add := func(code quality.Code, sev quality.Severity, format string, args ...any) {
		defects = append(defects, quality.Defect{
			Code: code, Component: quality.Data, Severity: sev,
			Detail: fmt.Sprintf(format, args...),
		})
	}

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
			add(quality.CorruptEntry, quality.Major, "SPEC result without a name dropped (%s)", j.Machine)
			continue
		}
		if _, dup := results[r.Bench]; dup {
			add(quality.DuplicateEntry, quality.Minor,
				"duplicate SPEC result for %s on %s: first kept", r.Bench, j.Machine)
			continue
		}
		if err := checkCounters(r.Bench+".st", &r.ST); err != nil {
			add(quality.CorruptEntry, quality.Major,
				"%s dropped from the %s SPEC results: %v", r.Bench, j.Machine, err)
			continue
		}
		smt := r.SMT
		switch {
		case checkCounters(r.Bench+".smt", &r.SMT) != nil:
			add(quality.MissingCounterGroup, quality.Minor,
				"%s on %s: corrupt SMT counters, ST substituted (hyperthreading scaling degrades to 1x)", r.Bench, j.Machine)
			smt = r.ST
		case zeroCounters(&r.SMT) && !zeroCounters(&r.ST):
			add(quality.MissingCounterGroup, quality.Minor,
				"%s on %s: SMT counter group absent, ST substituted (hyperthreading scaling degrades to 1x)", r.Bench, j.Machine)
			smt = r.ST
		}
		results[r.Bench] = spec.Result{Bench: r.Bench, Machine: r.Machine, ST: r.ST, SMT: smt}
	}
	if len(results) == 0 {
		return "", nil, nil, fmt.Errorf("persist: no usable SPEC results for %s (%d corrupt rows)", j.Machine, len(j.Results))
	}
	return j.Machine, results, defects, nil
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
