package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/persist"
	"repro/internal/spec"
)

// writeSpec writes machine's noisy SPEC suite, as specrun prints it, into
// dir and returns the path.
func writeSpec(t *testing.T, dir, machine string) string {
	t.Helper()
	results, err := spec.RunSuite(arch.MustGet(machine), true)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := persist.MarshalSpec(machine, results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec-"+machine+".json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeIMB writes machine's full IMB table at ranks, as imbrun prints it,
// into dir and returns the path.
func writeIMB(t *testing.T, dir, machine string, ranks int) string {
	t.Helper()
	tab, err := imb.Run(arch.MustGet(machine), ranks, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := persist.MarshalIMB(tab)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("imb-%s-%d.json", machine, ranks))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBadInputPaths pins the CLI contract for broken invocations: one
// actionable line on stderr naming the problem file, exit 1, and nothing
// on stdout — no panic, no multi-page dump, no partial report.
func TestBadInputPaths(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "does-not-exist.json")
	specBGP := writeSpec(t, dir, arch.BlueGene)
	imbBGP := writeIMB(t, dir, arch.BlueGene, 4)
	imbP6 := writeIMB(t, dir, arch.Power6, 4)
	// Malformed documents, each imbrun's or specrun's output with a value
	// no run writes: the decoder refuses them rather than dropping or
	// zero-pricing the entry.
	noFits := editDoc(t, imbP6, "no-fits.json", func(doc map[string]any) {
		for _, fit := range []string{"nb_intra", "nb_inter"} {
			doc[fit].(map[string]any)["in_flight"] = []any{}
		}
	})
	emptySend := editDoc(t, imbP6, "empty-send.json", func(doc map[string]any) {
		for _, r := range doc["per_op"].([]any) {
			if r := r.(map[string]any); r["routine"] == "MPI_Send" {
				r["samples"] = []any{}
			}
		}
	})
	zeroRuntimes := editDoc(t, writeSpec(t, dir, arch.Power6), "zero-runtimes.json", func(doc map[string]any) {
		for i, r := range doc["results"].([]any) {
			if i%3 == 0 { // 10 of the 29 rows
				r.(map[string]any)["st"].(map[string]any)["Runtime"] = 0
			}
		}
	})
	// Every ST runtime positive and finite, so the decoder accepts it, yet
	// each speedup over hydra's underflows to 0.
	tinyRuntimes := editDoc(t, writeSpec(t, dir, arch.Power6), "tiny-runtimes.json", func(doc map[string]any) {
		for _, r := range doc["results"].([]any) {
			r.(map[string]any)["st"].(map[string]any)["Runtime"] = 5e-324
		}
	})

	cases := []struct {
		name string
		args []string
		frag string // must appear in the single stderr line
	}{
		{"missing spec base", []string{"-spec-base", missing}, "SPEC data"},
		{"missing spec target", []string{"-spec-target", missing}, "SPEC data"},
		{"missing imb base", []string{"-imb-base", missing}, "IMB data"},
		{"missing imb target", []string{"-imb-target", missing}, "IMB data"},
		{"corrupt spec", []string{"-spec-base", garbage}, garbage},
		{"corrupt imb", []string{"-imb-base", garbage}, garbage},
		{"second imb path bad", []string{"-imb-base", garbage + "," + missing}, garbage},
		// A document for another machine than its flag's, or a second
		// table at one count, would silently project something else.
		{"spec target for another machine", []string{"-spec-target", specBGP}, "not the target machine power6-575"},
		{"spec base for another machine", []string{"-spec-base", specBGP}, "not the base machine hydra"},
		{"imb target for another machine", []string{"-imb-target", imbBGP}, "not the target machine power6-575"},
		{"imb base for another machine", []string{"-imb-base", imbP6}, "not the base machine hydra"},
		{"two imb tables at one count", []string{"-imb-target", imbP6 + "," + imbP6}, "a second target table at 4 ranks"},
		{"empty in_flight fits", []string{"-imb-target", noFits}, "nb_intra.in_flight has no samples"},
		{"empty per_op routine", []string{"-imb-target", emptySend}, "per_op.MPI_Send has no samples"},
		{"zero ST runtime", []string{"-spec-target", zeroRuntimes}, "400.perlbench.st: runtime 0 is not positive"},
		{"underflowing SPEC ratio", []string{"-spec-target", tinyRuntimes}, "SPEC 400.perlbench: ST runtime 5e-324 s on power6-575 over"},
		{"unwritable trace", []string{"-trace", filepath.Join(dir, "no", "such", "dir", "t.json")}, "trace"},
		// Request errors name no file; the library already prefixes them.
		{"one rank", []string{"-ranks", "1"}, "ranks must be at least 2"},
		{"base is target", []string{"-target", "hydra"}, "target must differ from base"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-bench", "LU-MZ", "-class", "C", "-ranks", "16"}, tc.args...)
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %q)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Count(msg, "\n") != 0 {
				t.Errorf("error not a single line:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "swapp: ") || strings.Count(msg, "swapp: ") != 1 {
				t.Errorf("error wants exactly one swapp: prefix: %q", msg)
			}
			if !strings.Contains(msg, tc.frag) {
				t.Errorf("error %q does not mention %q", msg, tc.frag)
			}
			// A case that passes a file must point at the offending file.
			if strings.Contains(strings.Join(tc.args, " "), dir) && !strings.Contains(msg, dir) {
				t.Errorf("error %q does not name the file path", msg)
			}
		})
	}
}

// TestPublishedDataMatchesMeasured proves the -spec-*/-imb-* flags feed
// the pipeline the same numbers it would measure itself: a -validate
// projection from published documents — both machines' SPEC suites and
// their full IMB tables at every count the request gathers — is
// byte-identical to the self-measured one, whose IMB tables are the sparse
// served ones. This is the paper's workflow — projecting from published
// data — holding the determinism contract; make prodcover runs the same
// round trip on BT-MZ.C@64 through imbrun and specrun.
func TestPublishedDataMatchesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipelines in -short mode")
	}
	dir := t.TempDir()
	imbFlag := func(machine string) string {
		var paths []string
		for _, c := range []int{4, 8, 16} { // LU-MZ.C@16's counts (core's TestCharCountsFor)
			paths = append(paths, writeIMB(t, dir, machine, c))
		}
		return strings.Join(paths, ",")
	}

	req := []string{"-bench", "LU-MZ", "-class", "C", "-ranks", "16", "-target", arch.Power6, "-validate"}
	var measured, published bytes.Buffer
	var stderr bytes.Buffer
	if code := run(req, &measured, &stderr); code != 0 {
		t.Fatalf("measured run failed: %s", stderr.String())
	}
	stderr.Reset()
	files := []string{
		"-spec-base", writeSpec(t, dir, arch.Hydra), "-spec-target", writeSpec(t, dir, arch.Power6),
		"-imb-base", imbFlag(arch.Hydra), "-imb-target", imbFlag(arch.Power6),
	}
	if code := run(append(req, files...), &published, &stderr); code != 0 {
		t.Fatalf("published-data run failed: %s", stderr.String())
	}
	if measured.String() != published.String() {
		t.Errorf("published data changed the projection:\n-- measured --\n%s\n-- published --\n%s",
			measured.String(), published.String())
	}
	// Clean published data must not surface a quality section.
	if strings.Contains(published.String(), "quality:") {
		t.Errorf("clean published data produced a quality section:\n%s", published.String())
	}
}
