package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/quality"
)

// editDoc writes the JSON document at src, changed by edit, beside it as
// name, and returns the new path.
func editDoc(t *testing.T, src, name string, edit func(doc map[string]any)) string {
	t.Helper()
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	if blob, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(filepath.Dir(src), name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// keep filters a JSON list to the entries ok accepts.
func keep(list any, ok func(map[string]any) bool) []any {
	var out []any
	for _, e := range list.([]any) {
		if ok(e.(map[string]any)) {
			out = append(out, e)
		}
	}
	return out
}

// TestPartialDocumentsDegrade: a document imbrun or specrun could have
// written with whole entries left out still projects — exit 0 — and its
// report grades the projection and names the one defect the gap causes.
// Each case is LU-MZ.C@16 onto power6-575 with one such document; between
// them they reach every quality code. A case with no grade is a gap the
// request never reads: a base table at a count the target lacks is one no
// projection at 16 ranks looks at, so the report is the no-file run's,
// byte for byte, with no quality section.
func TestPartialDocumentsDegrade(t *testing.T) {
	dir := t.TempDir()
	specHydra := writeSpec(t, dir, arch.Hydra)
	specP6 := writeSpec(t, dir, arch.Power6)
	imbP6 := writeIMB(t, dir, arch.Power6, 16)
	imbHydra32 := writeIMB(t, dir, arch.Hydra, 32)
	sizeBelow := func(max float64) func(map[string]any) bool {
		return func(e map[string]any) bool { return e["bytes"].(float64) < max }
	}

	cases := []struct {
		name  string
		args  []string
		grade string
		code  quality.Code
	}{
		{"three target SPEC benchmarks left out", []string{"-spec-target", editDoc(t, specP6, "spec-26.json", func(doc map[string]any) {
			doc["results"] = doc["results"].([]any)[3:]
		})}, "B", quality.MissingSpecBench},
		{"a base SPEC row without its SMT column", []string{"-spec-base", editDoc(t, specHydra, "spec-no-smt.json", func(doc map[string]any) {
			delete(doc["results"].([]any)[0].(map[string]any), "smt")
		})}, "B", quality.MissingCounterGroup},
		{"fits cut below 16 KiB", []string{"-imb-target", editDoc(t, imbP6, "imb-cut.json", func(doc map[string]any) {
			for _, fit := range []string{"nb_intra", "nb_inter"} {
				f := doc[fit].(map[string]any)
				f["in_flight"] = keep(f["in_flight"], sizeBelow(16384))
			}
		})}, "B", quality.IMBGridGap},
		{"one grid size", []string{"-imb-target", editDoc(t, imbP6, "imb-64k.json", func(doc map[string]any) {
			at64k := func(e map[string]any) bool { return e["bytes"].(float64) == 65536 }
			doc["sizes"] = []any{65536}
			for _, r := range doc["per_op"].([]any) {
				r := r.(map[string]any)
				r["samples"] = keep(r["samples"], at64k)
			}
			for _, fit := range []string{"nb_intra", "nb_inter"} {
				f := doc[fit].(map[string]any)
				f["in_flight"] = keep(f["in_flight"], at64k)
			}
		})}, "C", quality.IMBSinglePointGrid},
		{"a base table at a count the target lacks", []string{"-imb-base", imbHydra32}, "", ""},
		{"MPI_Reduce left out", []string{"-imb-target", editDoc(t, imbP6, "imb-no-reduce.json", func(doc map[string]any) {
			doc["per_op"] = keep(doc["per_op"], func(r map[string]any) bool { return r["routine"] != "MPI_Reduce" })
		})}, "C", quality.DroppedMPIRoutine},
	}
	project := func(t *testing.T, extra []string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append([]string{"-bench", "LU-MZ", "-class", "C", "-ranks", "16", "-target", arch.Power6}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, want 0 (stderr: %q)", code, stderr.String())
		}
		return stdout.String()
	}
	noFile := project(t, nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := project(t, tc.args)
			if tc.grade == "" {
				if out != noFile {
					t.Errorf("an unread document changed the report:\n%s\nwant the no-file run's:\n%s", out, noFile)
				}
				return
			}
			_, q, ok := strings.Cut(out, "\nquality: ")
			if !ok {
				t.Fatalf("no quality section:\n%s", out)
			}
			lines := strings.Split(strings.TrimRight(q, "\n"), "\n")
			if !strings.HasPrefix(lines[0], "grade "+tc.grade+" ") {
				t.Errorf("quality %q, want grade %s", lines[0], tc.grade)
			}
			if len(lines) != 2 || !strings.Contains(lines[1], "] "+string(tc.code)+": ") {
				t.Errorf("defects %q, want one %s", lines[1:], tc.code)
			}
		})
	}
}
