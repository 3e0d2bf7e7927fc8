package persist

import (
	"bytes"
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

// imbCorpus is the IMB targets' shared seed corpus: a real table and the
// corruption the strict decoder must catch, not load.
func imbCorpus(tb testing.TB) [][]byte {
	return [][]byte{
		[]byte(`{}`),
		[]byte(`not json`),
		seedIMB(tb),
		[]byte(`{"machine":"m","ranks":4,"sizes":[8,4]}`),
		[]byte(`{"machine":"m","ranks":4,"sizes":[-1]}`),
		[]byte(`{"machine":"m","ranks":4,"sizes":[4],"per_op":[{"routine":"MPI_Bcast","samples":[{"bytes":4,"seconds":-1}]}]}`),
		[]byte(`{"machine":"m","ranks":4,"sizes":[4],"per_op":[{"routine":"MPI_Bcast","samples":[]},{"routine":"MPI_Bcast","samples":[]}]}`),
	}
}

// checkIMBTable fails t unless tab holds what the strict decoder checks:
// a named table of at least two ranks on a positive, strictly increasing
// size grid, finite non-negative samples at non-negative sizes, and finite
// non-negative fits. Routine names are map keys, so they cannot repeat.
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
// either rejects the bytes or returns a table whose invariants hold and
// which re-marshals stably (marshal∘unmarshal is idempotent after one
// normalising round trip).
func FuzzUnmarshalIMB(f *testing.F) {
	for _, data := range imbCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := UnmarshalIMB(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		checkIMBTable(t, tab)
		// Round trip: an accepted table re-encodes, re-decodes, and the
		// second encoding is byte-identical (canonical form is a fixpoint).
		enc1, err := MarshalIMB(tab)
		if err != nil {
			t.Fatalf("re-marshal of accepted table failed: %v", err)
		}
		tab2, err := UnmarshalIMB(enc1)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v\n%s", err, enc1)
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

// specCorpus is the SPEC targets' shared seed corpus.
func specCorpus(tb testing.TB) [][]byte {
	return [][]byte{
		[]byte(`{}`),
		[]byte(`garbage`),
		seedSpec(tb),
		[]byte(`{"machine":"m","results":[{"bench":"a"},{"bench":"a"}]}`),
		[]byte(`{"machine":"m","results":[{"bench":"a","st":{"CPICompletion":-1}}]}`),
	}
}

// checkSpecSuite fails t unless the suite holds what the strict decoder
// checks: a named machine, at least one result, each under its own
// non-empty bench name (so no name repeats), and finite, non-negative
// counters in both modes.
func checkSpecSuite(t *testing.T, machine string, res map[string]spec.Result) {
	t.Helper()
	if machine == "" || len(res) == 0 {
		t.Fatalf("accepted incomplete suite: %q, %d results", machine, len(res))
	}
	for name, r := range res {
		if name == "" || r.Bench != name {
			t.Fatalf("result key %q does not match bench %q", name, r.Bench)
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

// FuzzUnmarshalSpec is the same contract for the SPEC decoder.
func FuzzUnmarshalSpec(f *testing.F) {
	for _, data := range specCorpus(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		machine, res, err := UnmarshalSpec(data)
		if err != nil {
			return
		}
		checkSpecSuite(t, machine, res)
		enc1, err := MarshalSpec(machine, res)
		if err != nil {
			t.Fatalf("re-marshal of accepted suite failed: %v", err)
		}
		m2, res2, err := UnmarshalSpec(enc1)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v\n%s", err, enc1)
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

// FuzzUnmarshalIMBLenient holds the lenient decoder — the one reading
// cmd/swapp's -imb-* files — to the strict decoder's invariants on
// whatever it salvages, and repairs to happening once: re-decoding the
// marshalled result gives the same table, and the only defect the second
// pass may report is a single-point grid, a property of the table rather
// than a repair.
func FuzzUnmarshalIMBLenient(f *testing.F) {
	for _, data := range append(imbCorpus(f), imbLenientFixtures(f)...) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, _, err := UnmarshalIMBLenient(data)
		if err != nil {
			return
		}
		checkIMBTable(t, tab)
		enc, err := MarshalIMB(tab)
		if err != nil {
			t.Fatalf("marshal of a salvaged table failed: %v", err)
		}
		tab2, ds, err := UnmarshalIMBLenient(enc)
		if err != nil {
			t.Fatalf("lenient decoder rejected its salvage's encoding: %v\n%s", err, enc)
		}
		for _, d := range ds {
			if d.Code != quality.IMBSinglePointGrid {
				t.Fatalf("second pass repaired again: %v\n%s", d, enc)
			}
		}
		if !reflect.DeepEqual(tab2, tab) {
			t.Fatalf("round trip changed the table:\n%+v\nvs\n%+v", tab2, tab)
		}
	})
}

// FuzzUnmarshalSpecLenient is the same contract for the lenient SPEC
// decoder, which reads cmd/swapp's -spec-* files; none of its repairs may
// show on the second pass.
func FuzzUnmarshalSpecLenient(f *testing.F) {
	for _, data := range append(specCorpus(f), specLenientFixtures(f)...) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		machine, res, _, err := UnmarshalSpecLenient(data)
		if err != nil {
			return
		}
		checkSpecSuite(t, machine, res)
		enc, err := MarshalSpec(machine, res)
		if err != nil {
			t.Fatalf("marshal of a salvaged suite failed: %v", err)
		}
		m2, res2, ds, err := UnmarshalSpecLenient(enc)
		if err != nil {
			t.Fatalf("lenient decoder rejected its salvage's encoding: %v\n%s", err, enc)
		}
		if len(ds) != 0 {
			t.Fatalf("second pass repaired again: %v\n%s", ds, enc)
		}
		if m2 != machine || !reflect.DeepEqual(res2, res) {
			t.Fatalf("round trip changed the suite:\n%q %+v\nvs\n%q %+v", m2, res2, machine, res)
		}
	})
}
