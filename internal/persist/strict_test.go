package persist

import (
	"encoding/json"
	"fmt"

	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/spec"
	"repro/internal/units"
)

// UnmarshalIMB decodes and validates an IMB table. Beyond syntactic JSON
// errors it rejects semantic corruption that would otherwise load silently
// and poison projections: non-monotone or non-positive size grids, negative
// or non-finite seconds, and duplicate routine entries. No program decodes
// through it: it is the reference TestLenientRoundTripMatchesStrict holds
// UnmarshalIMBLenient to on clean data, and FuzzUnmarshalIMB's decoder.
func UnmarshalIMB(data []byte) (*imb.Table, error) {
	var j imbTableJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("persist: bad IMB table: %w", err)
	}
	if j.Machine == "" || j.Ranks < 2 || len(j.Sizes) == 0 {
		return nil, fmt.Errorf("persist: incomplete IMB table (machine %q, %d ranks, %d sizes)",
			j.Machine, j.Ranks, len(j.Sizes))
	}
	prev := units.Bytes(0)
	for i, s := range j.Sizes {
		if s <= prev {
			return nil, fmt.Errorf("persist: IMB size grid entry %d: sizes must be positive and strictly increasing (%d after %d)",
				i, s, prev)
		}
		prev = s
	}
	if err := checkNBFit("nb_intra", j.NBIntra); err != nil {
		return nil, err
	}
	if err := checkNBFit("nb_inter", j.NBInter); err != nil {
		return nil, err
	}
	t := &imb.Table{
		Machine: j.Machine,
		Ranks:   j.Ranks,
		Sizes:   j.Sizes,
		PerOp:   map[mpi.Routine]map[units.Bytes]units.Seconds{},
		NBIntra: imb.NBFit{Overhead: j.NBIntra.Overhead, InFlight: mapOf(j.NBIntra.InFlight)},
		NBInter: imb.NBFit{Overhead: j.NBInter.Overhead, InFlight: mapOf(j.NBInter.InFlight)},
	}
	for _, rs := range j.PerOp {
		if rs.Routine == "" {
			return nil, fmt.Errorf("persist: IMB per_op entry without a routine name")
		}
		if _, dup := t.PerOp[rs.Routine]; dup {
			return nil, fmt.Errorf("persist: duplicate IMB per_op entry for %s", rs.Routine)
		}
		if err := checkSamples("per_op."+string(rs.Routine), rs.Samples); err != nil {
			return nil, err
		}
		t.PerOp[rs.Routine] = mapOf(rs.Samples)
	}
	return t, nil
}

// UnmarshalSpec decodes and validates a SPEC result set, rejecting
// duplicate benchmark entries and non-finite or negative counter values.
// No program decodes through it: it is the reference
// TestLenientRoundTripMatchesStrict holds UnmarshalSpecLenient to on clean
// data, and FuzzUnmarshalSpec's decoder.
func UnmarshalSpec(data []byte) (machine string, results map[string]spec.Result, err error) {
	var j specSuiteJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return "", nil, fmt.Errorf("persist: bad SPEC results: %w", err)
	}
	if j.Machine == "" || len(j.Results) == 0 {
		return "", nil, fmt.Errorf("persist: incomplete SPEC results")
	}
	results = make(map[string]spec.Result, len(j.Results))
	for _, r := range j.Results {
		if r.Bench == "" {
			return "", nil, fmt.Errorf("persist: SPEC result without a name")
		}
		if _, dup := results[r.Bench]; dup {
			return "", nil, fmt.Errorf("persist: duplicate SPEC result for %s", r.Bench)
		}
		if err := checkCounters(r.Bench+".st", &r.ST); err != nil {
			return "", nil, err
		}
		if err := checkCounters(r.Bench+".smt", &r.SMT); err != nil {
			return "", nil, err
		}
		results[r.Bench] = spec.Result{Bench: r.Bench, Machine: r.Machine, ST: r.ST, SMT: r.SMT}
	}
	return j.Machine, results, nil
}
