package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/imb"
	"repro/internal/quality"
	"repro/internal/spec"
	"repro/internal/units"
)

// seedIMB produces a real marshalled table for the fuzz corpus.
func seedIMB(tb testing.TB) []byte {
	tb.Helper()
	t, err := imb.Run(arch.MustGet(arch.Hydra), 4, units.Pow2Sizes(64, 4*units.KiB))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := MarshalIMB(t)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// imbCorpus is the seed corpus of FuzzUnmarshalIMB and
// FuzzUnmarshalIMBLenient: a real table and the corruption the decoder
// must catch, not load, then imbFixtures.
func imbCorpus(tb testing.TB) [][]byte {
	return append([][]byte{
		[]byte(`{}`),
		[]byte(`not json`),
		seedIMB(tb),
		[]byte(`{"machine":"m","ranks":4,"sizes":[8,4]}`),
		[]byte(`{"machine":"m","ranks":4,"sizes":[-1]}`),
		[]byte(`{"machine":"m","ranks":4,"sizes":[4],"per_op":[{"routine":"MPI_Bcast","samples":[{"bytes":4,"seconds":-1}]}]}`),
		[]byte(`{"machine":"m","ranks":4,"sizes":[4],"per_op":[{"routine":"MPI_Bcast","samples":[]},{"routine":"MPI_Bcast","samples":[]}]}`),
	}, imbFixtures(tb)...)
}

// checkIMBTable fails t unless tab holds what UnmarshalIMB checks: a named
// table of at least two ranks on a positive, strictly increasing size grid,
// routines and fits with at least one sample, finite non-negative samples
// at non-negative sizes, and finite non-negative fit overheads. Routine
// names are map keys, so they cannot repeat.
func checkIMBTable(t *testing.T, tab *imb.Table) {
	t.Helper()
	if tab.Machine == "" || tab.Ranks < 2 || len(tab.Sizes) == 0 {
		t.Fatalf("accepted incomplete table: %+v", tab)
	}
	prev := units.Bytes(0)
	for _, s := range tab.Sizes {
		if s <= prev {
			t.Fatalf("accepted non-monotone size grid: %v", tab.Sizes)
		}
		prev = s
	}
	badSamples := func(what string, samples map[units.Bytes]units.Seconds) {
		if len(samples) == 0 {
			t.Fatalf("accepted %s with no samples", what)
		}
		for size, sec := range samples {
			if size < 0 || sec < 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
				t.Fatalf("accepted bad sample %s@%d: %v", what, size, sec)
			}
		}
	}
	for rt, samples := range tab.PerOp {
		badSamples(string(rt), samples)
	}
	for _, fit := range []imb.NBFit{tab.NBIntra, tab.NBInter} {
		if fit.Overhead < 0 || math.IsNaN(fit.Overhead) || math.IsInf(fit.Overhead, 0) {
			t.Fatalf("accepted bad NB overhead: %v", fit.Overhead)
		}
		badSamples("in_flight", fit.InFlight)
	}
}

// FuzzUnmarshalIMB asserts the decoder's contract on arbitrary input: it
// either rejects the bytes or returns a table whose invariants hold, which
// re-decodes from its own encoding to the same table with the same defects
// (a single-point grid is a property of the table, not a repair), and
// whose canonical encoding is a fixpoint.
func FuzzUnmarshalIMB(f *testing.F) {
	for _, data := range imbCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, ds, err := UnmarshalIMB(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		checkIMBTable(t, tab)
		enc1, err := MarshalIMB(tab)
		if err != nil {
			t.Fatalf("re-marshal of accepted table failed: %v", err)
		}
		tab2, ds2, err := UnmarshalIMB(enc1)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v\n%s", err, enc1)
		}
		if !reflect.DeepEqual(tab2, tab) || !reflect.DeepEqual(ds2, ds) {
			t.Fatalf("round trip changed the table or its defects:\n%+v %v\nvs\n%+v %v", tab2, ds2, tab, ds)
		}
		enc2, err := MarshalIMB(tab2)
		if err != nil {
			t.Fatalf("second re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixpoint:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}

// FuzzUnmarshalIMBLenient holds the decoder to salvaging nothing from the
// damaged documents in its corpus — corrupt samples, empty and repeated
// routines, single-size grids, bad fits — or from any mutation of them: a
// document it accepts keeps every routine and every sample it names, and
// the only defect it reports is a single-size grid, exactly when the grid
// has one size.
func FuzzUnmarshalIMBLenient(f *testing.F) {
	for _, data := range imbCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, ds, err := UnmarshalIMB(data)
		if err != nil {
			return
		}
		checkIMBTable(t, tab)
		var j imbTableJSON
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("accepted a document encoding/json refuses: %v", err)
		}
		if len(tab.PerOp) != len(j.PerOp) {
			t.Fatalf("document names %d routines, table holds %d", len(j.PerOp), len(tab.PerOp))
		}
		for _, rs := range j.PerOp {
			if got := len(tab.PerOp[rs.Routine]); got != len(rs.Samples) {
				t.Fatalf("%s: document has %d samples, table holds %d", rs.Routine, len(rs.Samples), got)
			}
		}
		for _, fit := range []struct {
			doc nbFitJSON
			tab imb.NBFit
		}{{j.NBIntra, tab.NBIntra}, {j.NBInter, tab.NBInter}} {
			if len(fit.tab.InFlight) != len(fit.doc.InFlight) {
				t.Fatalf("fit has %d in-flight samples, table holds %d", len(fit.doc.InFlight), len(fit.tab.InFlight))
			}
		}
		if (len(ds) == 1) != (len(tab.Sizes) == 1) || len(ds) > 1 {
			t.Fatalf("defects %v for a %d-size grid", ds, len(tab.Sizes))
		}
		if len(ds) == 1 && ds[0].Code != quality.IMBSinglePointGrid {
			t.Fatalf("unexpected defect %v", ds[0])
		}
	})
}

// seedSpec produces a real marshalled SPEC suite for the fuzz corpus.
func seedSpec(tb testing.TB) []byte {
	tb.Helper()
	res, err := spec.RunSuite(arch.MustGet(arch.Hydra), false)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := MarshalSpec(arch.Hydra, res)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// specCorpus is the seed corpus of FuzzUnmarshalSpec and
// FuzzUnmarshalSpecLenient: a real suite, corruption, then specFixtures.
func specCorpus(tb testing.TB) [][]byte {
	return append([][]byte{
		[]byte(`{}`),
		[]byte(`garbage`),
		seedSpec(tb),
		[]byte(`{"machine":"m","results":[{"bench":"a"},{"bench":"a"}]}`),
		[]byte(`{"machine":"m","results":[{"bench":"a","st":{"CPICompletion":-1}}]}`),
	}, specFixtures(tb)...)
}

// checkSpecSuite fails t unless the suite holds what UnmarshalSpec checks:
// a named machine, at least one result, each under its own non-empty bench
// name (so no name repeats), finite, non-negative counters in both modes,
// and a positive ST runtime.
func checkSpecSuite(t *testing.T, machine string, res map[string]spec.Result) {
	t.Helper()
	if machine == "" || len(res) == 0 {
		t.Fatalf("accepted incomplete suite: %q, %d results", machine, len(res))
	}
	for name, r := range res {
		if name == "" || r.Bench != name {
			t.Fatalf("result key %q does not match bench %q", name, r.Bench)
		}
		if r.ST.Runtime <= 0 {
			t.Fatalf("accepted %s with ST runtime %v", name, r.ST.Runtime)
		}
		for _, c := range []hpm.Counters{r.ST, r.SMT} {
			for _, v := range append(c.Vector(), c.Instructions, c.CPI, c.Runtime) {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted bad counter value %v in %s", v, name)
				}
			}
		}
	}
}

// FuzzUnmarshalSpec is the same contract for the SPEC decoder, except that
// its one defect — an absent SMT group — is repaired by the first decode
// (ST stands in), so the second reports none.
func FuzzUnmarshalSpec(f *testing.F) {
	for _, data := range specCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		machine, res, _, err := UnmarshalSpec(data)
		if err != nil {
			return
		}
		checkSpecSuite(t, machine, res)
		enc1, err := MarshalSpec(machine, res)
		if err != nil {
			t.Fatalf("re-marshal of accepted suite failed: %v", err)
		}
		m2, res2, ds, err := UnmarshalSpec(enc1)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v\n%s", err, enc1)
		}
		if len(ds) != 0 {
			t.Fatalf("second pass repaired again: %v\n%s", ds, enc1)
		}
		if m2 != machine || !reflect.DeepEqual(res2, res) {
			t.Fatalf("round trip changed the suite:\n%q %+v\nvs\n%q %+v", m2, res2, machine, res)
		}
		enc2, err := MarshalSpec(m2, res2)
		if err != nil {
			t.Fatalf("second re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encoding is not a fixpoint:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}

// FuzzUnmarshalSpecLenient is the same for SPEC documents: an accepted
// document keeps every row it names, and it reports one
// missing-counter-group defect for each row whose SMT column is all zero,
// the one substitution the decoder makes.
func FuzzUnmarshalSpecLenient(f *testing.F) {
	for _, data := range specCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		machine, res, ds, err := UnmarshalSpec(data)
		if err != nil {
			return
		}
		checkSpecSuite(t, machine, res)
		var j specSuiteJSON
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("accepted a document encoding/json refuses: %v", err)
		}
		if len(res) != len(j.Results) {
			t.Fatalf("document names %d rows, suite holds %d", len(j.Results), len(res))
		}
		absent := 0
		for _, r := range j.Results {
			if zeroCounters(&r.SMT) {
				absent++
			}
		}
		if len(ds) != absent {
			t.Fatalf("%d rows without SMT counters, %d defects: %v", absent, len(ds), ds)
		}
		for _, d := range ds {
			if d.Code != quality.MissingCounterGroup {
				t.Fatalf("unexpected defect %v", d)
			}
		}
	})
}
