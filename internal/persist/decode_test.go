package persist

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hpm"
	"repro/internal/quality"
)

// newIMBFixture is a minimal valid IMB table document tests mutate.
func newIMBFixture() map[string]any {
	return map[string]any{
		"machine": "hydra",
		"ranks":   4,
		"sizes":   []int{1024, 4096},
		"per_op": []map[string]any{
			{"routine": "MPI_Bcast", "samples": []map[string]any{
				{"bytes": 1024, "seconds": 1e-4},
				{"bytes": 4096, "seconds": 2e-4},
			}},
		},
		"nb_intra": map[string]any{"overhead": 1e-6, "in_flight": []map[string]any{{"bytes": 1024, "seconds": 1e-5}}},
		"nb_inter": map[string]any{"overhead": 2e-6, "in_flight": []map[string]any{{"bytes": 1024, "seconds": 2e-5}}},
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sample(bytes int, seconds float64) map[string]any {
	return map[string]any{"bytes": bytes, "seconds": seconds}
}

func bcast(samples ...map[string]any) map[string]any {
	return map[string]any{"routine": "MPI_Bcast", "samples": samples}
}

// imbFixtures is newIMBFixture clean, partial (a single-point grid) and
// with each damage UnmarshalIMB refuses: an empty routine, a corrupt
// sample, a duplicate routine, a corrupt fit.
func imbFixtures(tb testing.TB) [][]byte {
	variants := []func(map[string]any){
		func(map[string]any) {},
		func(fix map[string]any) {
			fix["per_op"] = append(fix["per_op"].([]map[string]any), map[string]any{"routine": "MPI_Allreduce", "samples": []map[string]any{}})
		},
		func(fix map[string]any) {
			fix["per_op"] = []map[string]any{bcast(sample(1024, 1e-4), sample(2048, -5), sample(4096, 2e-4))}
		},
		func(fix map[string]any) {
			fix["per_op"] = append(fix["per_op"].([]map[string]any), bcast(sample(1024, 9.9)))
		},
		func(fix map[string]any) {
			fix["sizes"] = []int{1024}
			fix["per_op"] = []map[string]any{bcast(sample(1024, 1e-4))}
		},
		func(fix map[string]any) {
			fix["nb_inter"] = map[string]any{"overhead": -1, "in_flight": []map[string]any{sample(1024, 2e-5)}}
		},
	}
	out := make([][]byte, len(variants))
	for i, edit := range variants {
		fix := newIMBFixture()
		edit(fix)
		out[i] = mustJSON(tb, fix)
	}
	return out
}

func TestIMBCleanHasNoDefects(t *testing.T) {
	tab, ds, err := UnmarshalIMB(mustJSON(t, newIMBFixture()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("clean table produced defects: %v", ds)
	}
	if got, _ := tab.Time("MPI_Bcast", 1024); got != 1e-4 {
		t.Errorf("sample lost: %v", got)
	}
}

func TestIMBSinglePointGrid(t *testing.T) {
	fix := newIMBFixture()
	fix["sizes"] = []int{1024}
	fix["per_op"] = []map[string]any{bcast(sample(1024, 1e-4))}
	_, ds, err := UnmarshalIMB(mustJSON(t, fix))
	if err != nil {
		t.Fatalf("single-point grid must degrade, not fail: %v", err)
	}
	if len(ds) != 1 || ds[0].Code != quality.IMBSinglePointGrid || ds[0].Severity != quality.Major {
		t.Errorf("defects = %v, want one major IMBSinglePointGrid", ds)
	}
}

// TestIMBRefusesMalformed: a document imbrun could not have written, even
// with entries left out, is an error that says what is wrong — nothing is
// dropped, kept-first or priced at zero.
func TestIMBRefusesMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(map[string]any)
		want string
	}{
		{"corrupt sample", func(fix map[string]any) {
			fix["per_op"] = []map[string]any{bcast(sample(1024, 1e-4), sample(2048, -5), sample(4096, 2e-4))}
		}, "per_op.MPI_Bcast: sample 1 (2048 bytes): bad seconds"},
		{"unsorted samples", func(fix map[string]any) {
			fix["per_op"] = []map[string]any{bcast(sample(4096, 2e-4), sample(1024, 1e-4))}
		}, "strictly increasing"},
		{"duplicate routine", func(fix map[string]any) {
			fix["per_op"] = append(fix["per_op"].([]map[string]any), bcast(sample(1024, 9.9)))
		}, "duplicate IMB per_op entry for MPI_Bcast"},
		{"empty routine", func(fix map[string]any) {
			fix["per_op"] = append(fix["per_op"].([]map[string]any),
				map[string]any{"routine": "MPI_Allreduce", "samples": []map[string]any{}})
		}, "per_op.MPI_Allreduce has no samples"},
		{"nameless routine", func(fix map[string]any) {
			fix["per_op"] = []map[string]any{{"samples": []map[string]any{sample(1024, 1e-4)}}}
		}, "without a routine name"},
		{"empty intra fit", func(fix map[string]any) {
			fix["nb_intra"] = map[string]any{"overhead": 1e-6, "in_flight": []map[string]any{}}
		}, "nb_intra.in_flight has no samples"},
		{"absent inter fit", func(fix map[string]any) { delete(fix, "nb_inter") }, "nb_inter.in_flight has no samples"},
		{"corrupt fit", func(fix map[string]any) {
			fix["nb_inter"] = map[string]any{"overhead": -1, "in_flight": []map[string]any{sample(1024, 2e-5)}}
		}, "nb_inter: bad overhead"},
		{"broken grid", func(fix map[string]any) { fix["sizes"] = []int{4096, 1024} }, "IMB size grid entry 1"},
		{"no grid", func(fix map[string]any) { delete(fix, "sizes") }, "incomplete IMB table"},
		{"no machine", func(fix map[string]any) { delete(fix, "machine") }, "incomplete IMB table"},
		{"one rank", func(fix map[string]any) { fix["ranks"] = 1 }, "incomplete IMB table"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newIMBFixture()
			tc.edit(fix)
			tab, ds, err := UnmarshalIMB(mustJSON(t, fix))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if tab != nil || ds != nil {
				t.Errorf("a refused document returned %v and %v", tab, ds)
			}
		})
	}
	if _, _, err := UnmarshalIMB([]byte("{")); err == nil || !strings.Contains(err.Error(), "bad IMB table") {
		t.Errorf("not JSON: err = %v", err)
	}
}

// specFixture builds a valid two-benchmark suite document.
func specFixture() map[string]any {
	good := func(bench string) map[string]any {
		c := hpm.Counters{Instructions: 1e9, CPI: 1.2, Runtime: 10}
		return map[string]any{"bench": bench, "machine": "hydra", "st": c, "smt": c}
	}
	return map[string]any{
		"machine": "hydra",
		"results": []map[string]any{good("410.bwaves"), good("437.leslie3d")},
	}
}

// corruptSpecRow is a SPEC row with a negative ST counter.
func corruptSpecRow() map[string]any {
	return map[string]any{"bench": "470.lbm", "machine": "hydra",
		"st": map[string]any{"instructions": -1.0}, "smt": map[string]any{}}
}

// specFixtures is specFixture clean, partial (an absent SMT group) and with
// each damage UnmarshalSpec refuses: a corrupt row, a corrupt SMT group, a
// duplicate row, and every row corrupt.
func specFixtures(tb testing.TB) [][]byte {
	variants := []func(map[string]any){
		func(map[string]any) {},
		func(fix map[string]any) {
			fix["results"] = append(fix["results"].([]map[string]any), corruptSpecRow())
		},
		func(fix map[string]any) {
			fix["results"].([]map[string]any)[0]["smt"] = hpm.Counters{}
		},
		func(fix map[string]any) {
			fix["results"].([]map[string]any)[0]["smt"] = map[string]any{"instructions": -1.0}
		},
		func(fix map[string]any) {
			c := hpm.Counters{Instructions: 5, CPI: 5, Runtime: 5}
			fix["results"] = append(fix["results"].([]map[string]any),
				map[string]any{"bench": "410.bwaves", "machine": "hydra", "st": c, "smt": c})
		},
		func(fix map[string]any) {
			fix["results"] = []map[string]any{corruptSpecRow()}
		},
	}
	out := make([][]byte, len(variants))
	for i, edit := range variants {
		fix := specFixture()
		edit(fix)
		out[i] = mustJSON(tb, fix)
	}
	return out
}

func TestSpecCleanHasNoDefects(t *testing.T) {
	machine, results, ds, err := UnmarshalSpec(mustJSON(t, specFixture()))
	if err != nil {
		t.Fatal(err)
	}
	if machine != "hydra" || len(results) != 2 || len(ds) != 0 {
		t.Errorf("machine=%q results=%d defects=%v", machine, len(results), ds)
	}
}

func TestSpecZeroSMTSubstituted(t *testing.T) {
	fix := specFixture()
	delete(fix["results"].([]map[string]any)[0], "smt") // the collector never filled the SMT group
	_, results, ds, err := UnmarshalSpec(mustJSON(t, fix))
	if err != nil {
		t.Fatal(err)
	}
	r := results["410.bwaves"]
	if r.SMT != r.ST {
		t.Errorf("SMT not substituted with ST: %+v vs %+v", r.SMT, r.ST)
	}
	if len(ds) != 1 || ds[0].Code != quality.MissingCounterGroup || ds[0].Severity != quality.Minor {
		t.Errorf("defects = %v, want one minor MissingCounterGroup", ds)
	}
}

// TestSpecRefusesMalformed is TestIMBRefusesMalformed for SPEC documents.
func TestSpecRefusesMalformed(t *testing.T) {
	row := func(fix map[string]any) map[string]any { return fix["results"].([]map[string]any)[0] }
	for _, tc := range []struct {
		name string
		edit func(map[string]any)
		want string
	}{
		{"corrupt row", func(fix map[string]any) {
			fix["results"] = append(fix["results"].([]map[string]any), corruptSpecRow())
		}, "470.lbm.st: bad counter value -1"},
		{"every row corrupt", func(fix map[string]any) {
			fix["results"] = []map[string]any{corruptSpecRow()}
		}, "470.lbm.st: bad counter value -1"},
		{"corrupt smt", func(fix map[string]any) {
			row(fix)["smt"] = map[string]any{"instructions": -1.0}
		}, "410.bwaves.smt: bad counter value -1"},
		{"zero runtime", func(fix map[string]any) {
			row(fix)["st"] = hpm.Counters{Instructions: 1e9, CPI: 1.2}
		}, "410.bwaves.st: runtime 0 is not positive"},
		{"absent st", func(fix map[string]any) { delete(row(fix), "st") }, "410.bwaves.st: runtime 0 is not positive"},
		{"duplicate row", func(fix map[string]any) {
			c := hpm.Counters{Instructions: 5, CPI: 5, Runtime: 5}
			fix["results"] = append(fix["results"].([]map[string]any),
				map[string]any{"bench": "410.bwaves", "machine": "hydra", "st": c, "smt": c})
		}, "duplicate SPEC result for 410.bwaves"},
		{"nameless row", func(fix map[string]any) { delete(row(fix), "bench") }, "SPEC result without a name"},
		{"no rows", func(fix map[string]any) { delete(fix, "results") }, "incomplete SPEC results"},
		{"no machine", func(fix map[string]any) { delete(fix, "machine") }, "incomplete SPEC results"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := specFixture()
			tc.edit(fix)
			_, results, ds, err := UnmarshalSpec(mustJSON(t, fix))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if results != nil || ds != nil {
				t.Errorf("a refused document returned %v and %v", results, ds)
			}
		})
	}
}
