package persist

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hpm"
	"repro/internal/quality"
	"repro/internal/spec"
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

// imbLenientFixtures is newIMBFixture clean and with each damage the
// lenient IMB decoder repairs: an empty routine, a corrupt sample, a
// duplicate routine, a single-point grid, a corrupt fit.
func imbLenientFixtures(tb testing.TB) [][]byte {
	bcast := func(samples ...map[string]any) map[string]any {
		return map[string]any{"routine": "MPI_Bcast", "samples": samples}
	}
	sample := func(bytes int, seconds float64) map[string]any {
		return map[string]any{"bytes": bytes, "seconds": seconds}
	}
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

func codesOf(ds []quality.Defect) map[quality.Code]int {
	out := map[quality.Code]int{}
	for _, d := range ds {
		out[d.Code]++
	}
	return out
}

func TestIMBLenientCleanHasNoDefects(t *testing.T) {
	tab, ds, err := UnmarshalIMBLenient(mustJSON(t, newIMBFixture()))
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

func TestIMBLenientEmptyRoutine(t *testing.T) {
	fix := newIMBFixture()
	fix["per_op"] = append(fix["per_op"].([]map[string]any),
		map[string]any{"routine": "MPI_Allreduce", "samples": []map[string]any{}})
	tab, ds, err := UnmarshalIMBLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatalf("empty routine must degrade, not fail: %v", err)
	}
	if _, ok := tab.PerOp["MPI_Allreduce"]; ok {
		t.Error("empty routine loaded as an entry")
	}
	if codesOf(ds)[quality.MissingIMBRoutine] != 1 {
		t.Errorf("defects = %v, want one MissingIMBRoutine", ds)
	}
	// The strict decoder accepts an empty sweep too, but the lenient one
	// must keep the rest of the table intact alongside the defect.
	if _, err := tab.Time("MPI_Bcast", 1024); err != nil {
		t.Errorf("healthy routine lost: %v", err)
	}
}

func TestIMBLenientCorruptSamplesDropped(t *testing.T) {
	fix := newIMBFixture()
	fix["per_op"] = []map[string]any{
		{"routine": "MPI_Bcast", "samples": []map[string]any{
			{"bytes": 1024, "seconds": 1e-4},
			{"bytes": 2048, "seconds": -5.0}, // negative: corrupt
			{"bytes": 4096, "seconds": 2e-4},
		}},
	}
	tab, ds, err := UnmarshalIMBLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatalf("corrupt sample must degrade, not fail: %v", err)
	}
	if _, ok := tab.PerOp["MPI_Bcast"][2048]; ok {
		t.Error("corrupt sample survived")
	}
	if _, ok := tab.PerOp["MPI_Bcast"][4096]; !ok {
		t.Error("valid sample after the corrupt one lost")
	}
	if codesOf(ds)[quality.CorruptEntry] != 1 {
		t.Errorf("defects = %v, want one CorruptEntry", ds)
	}
	// Strict path still rejects the same bytes — leniency is opt-in.
	if _, err := UnmarshalIMB(mustJSON(t, fix)); err == nil {
		t.Error("strict decoder accepted corrupt samples")
	}
}

func TestIMBLenientDuplicateKeepsFirst(t *testing.T) {
	fix := newIMBFixture()
	fix["per_op"] = append(fix["per_op"].([]map[string]any),
		map[string]any{"routine": "MPI_Bcast", "samples": []map[string]any{
			{"bytes": 1024, "seconds": 9.9},
		}})
	tab, ds, err := UnmarshalIMBLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.PerOp["MPI_Bcast"][1024]; got != 1e-4 {
		t.Errorf("duplicate overwrote the first entry: %v", got)
	}
	if codesOf(ds)[quality.DuplicateEntry] != 1 {
		t.Errorf("defects = %v, want one DuplicateEntry", ds)
	}
}

func TestIMBLenientSinglePointGrid(t *testing.T) {
	fix := newIMBFixture()
	fix["sizes"] = []int{1024}
	fix["per_op"] = []map[string]any{
		{"routine": "MPI_Bcast", "samples": []map[string]any{{"bytes": 1024, "seconds": 1e-4}}},
	}
	_, ds, err := UnmarshalIMBLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatalf("single-point grid must degrade, not fail: %v", err)
	}
	if codesOf(ds)[quality.IMBSinglePointGrid] != 1 {
		t.Errorf("defects = %v, want one IMBSinglePointGrid", ds)
	}
}

func TestIMBLenientStillRejectsStructuralDamage(t *testing.T) {
	for name, data := range map[string]string{
		"not json":     "{",
		"no machine":   `{"ranks":4,"sizes":[64]}`,
		"broken grid":  `{"machine":"m","ranks":4,"sizes":[64,32]}`,
		"single ranks": `{"machine":"m","ranks":1,"sizes":[64]}`,
	} {
		if _, _, err := UnmarshalIMBLenient([]byte(data)); err == nil {
			t.Errorf("%s: accepted, want hard error", name)
		}
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

// specLenientFixtures is specFixture clean and with each damage the
// lenient SPEC decoder repairs: a corrupt row, an absent and a corrupt
// SMT group, a duplicate row, and every row corrupt.
func specLenientFixtures(tb testing.TB) [][]byte {
	corrupt := map[string]any{"bench": "470.lbm", "machine": "hydra",
		"st": map[string]any{"instructions": -1.0}, "smt": map[string]any{}}
	variants := []func(map[string]any){
		func(map[string]any) {},
		func(fix map[string]any) {
			fix["results"] = append(fix["results"].([]map[string]any), corrupt)
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
			fix["results"] = []map[string]any{corrupt}
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

func TestSpecLenientCleanHasNoDefects(t *testing.T) {
	machine, results, ds, err := UnmarshalSpecLenient(mustJSON(t, specFixture()))
	if err != nil {
		t.Fatal(err)
	}
	if machine != "hydra" || len(results) != 2 || len(ds) != 0 {
		t.Errorf("machine=%q results=%d defects=%v", machine, len(results), ds)
	}
}

func TestSpecLenientCorruptRowDropped(t *testing.T) {
	fix := specFixture()
	fix["results"] = append(fix["results"].([]map[string]any), map[string]any{
		"bench": "470.lbm", "machine": "hydra",
		"st":  map[string]any{"instructions": -1.0},
		"smt": map[string]any{},
	})
	_, results, ds, err := UnmarshalSpecLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatalf("corrupt row must degrade, not fail: %v", err)
	}
	if _, ok := results["470.lbm"]; ok {
		t.Error("corrupt row loaded")
	}
	if len(results) != 2 {
		t.Errorf("healthy rows lost: %d", len(results))
	}
	if codesOf(ds)[quality.CorruptEntry] != 1 {
		t.Errorf("defects = %v, want one CorruptEntry", ds)
	}
	if _, _, err := UnmarshalSpec(mustJSON(t, fix)); err == nil {
		t.Error("strict decoder accepted the corrupt row")
	}
}

func TestSpecLenientZeroSMTSubstituted(t *testing.T) {
	fix := specFixture()
	rows := fix["results"].([]map[string]any)
	rows[0]["smt"] = hpm.Counters{} // collector never filled the SMT group
	machine, results, ds, err := UnmarshalSpecLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatal(err)
	}
	_ = machine
	r := results["410.bwaves"]
	if r.SMT != r.ST {
		t.Errorf("SMT not substituted with ST: %+v vs %+v", r.SMT, r.ST)
	}
	if codesOf(ds)[quality.MissingCounterGroup] != 1 {
		t.Errorf("defects = %v, want one MissingCounterGroup", ds)
	}
}

func TestSpecLenientDuplicateKeepsFirst(t *testing.T) {
	fix := specFixture()
	rows := fix["results"].([]map[string]any)
	dup := map[string]any{"bench": "410.bwaves", "machine": "hydra",
		"st": hpm.Counters{Instructions: 5, CPI: 5, Runtime: 5}, "smt": hpm.Counters{Instructions: 5, CPI: 5, Runtime: 5}}
	fix["results"] = append(rows, dup)
	_, results, ds, err := UnmarshalSpecLenient(mustJSON(t, fix))
	if err != nil {
		t.Fatal(err)
	}
	if results["410.bwaves"].ST.Runtime == 5 {
		t.Error("duplicate overwrote the first entry")
	}
	if codesOf(ds)[quality.DuplicateEntry] != 1 {
		t.Errorf("defects = %v, want one DuplicateEntry", ds)
	}
}

func TestSpecLenientAllRowsCorruptIsHardError(t *testing.T) {
	fix := specFixture()
	fix["results"] = []map[string]any{{
		"bench": "410.bwaves", "machine": "hydra",
		"st": map[string]any{"instructions": -1.0}, "smt": map[string]any{},
	}}
	if _, _, _, err := UnmarshalSpecLenient(mustJSON(t, fix)); err == nil {
		t.Error("suite with zero usable rows accepted")
	}
}

// TestLenientRoundTripMatchesStrict pins that on clean data the lenient
// decoders produce exactly what the strict ones do — leniency must not
// perturb healthy loads.
func TestLenientRoundTripMatchesStrict(t *testing.T) {
	data := mustJSON(t, newIMBFixture())
	strict, err := UnmarshalIMB(data)
	if err != nil {
		t.Fatal(err)
	}
	lenient, ds, err := UnmarshalIMBLenient(data)
	if err != nil || len(ds) != 0 {
		t.Fatalf("lenient clean load: %v / %v", err, ds)
	}
	sb, _ := MarshalIMB(strict)
	lb, _ := MarshalIMB(lenient)
	if string(sb) != string(lb) {
		t.Error("lenient decode diverges from strict on clean data")
	}

	sdata := mustJSON(t, specFixture())
	smach, sres, err := UnmarshalSpec(sdata)
	if err != nil {
		t.Fatal(err)
	}
	lmach, lres, ds, err := UnmarshalSpecLenient(sdata)
	if err != nil || len(ds) != 0 {
		t.Fatalf("lenient clean load: %v / %v", err, ds)
	}
	if smach != lmach || len(sres) != len(lres) {
		t.Error("lenient SPEC decode diverges from strict on clean data")
	}
	var _ = spec.SortedNames
	sj, _ := MarshalSpec(smach, sres)
	lj, _ := MarshalSpec(lmach, lres)
	if string(sj) != string(lj) {
		t.Error("lenient SPEC decode diverges from strict on clean data")
	}
	if !strings.Contains(string(sj), "410.bwaves") {
		t.Error("fixture lost its benchmarks")
	}
}
