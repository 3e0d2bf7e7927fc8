package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/persist"
	"repro/internal/spec"
)

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
// the pipeline the same numbers it would measure itself: a projection
// from published (persisted) base SPEC data is byte-identical to the
// self-measured one. This is the paper's workflow — projecting from
// published target data — holding the determinism contract.
func TestPublishedDataMatchesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipelines in -short mode")
	}
	results, err := spec.RunSuite(arch.MustGet(arch.Hydra), true)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := persist.MarshalSpec(arch.Hydra, results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec-hydra.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	base := []string{"-bench", "LU-MZ", "-class", "C", "-ranks", "16"}
	var measured, published bytes.Buffer
	var stderr bytes.Buffer
	if code := run(base, &measured, &stderr); code != 0 {
		t.Fatalf("measured run failed: %s", stderr.String())
	}
	stderr.Reset()
	if code := run(append(base, "-spec-base", path), &published, &stderr); code != 0 {
		t.Fatalf("published-data run failed: %s", stderr.String())
	}
	if measured.String() != published.String() {
		t.Errorf("published SPEC data changed the projection:\n-- measured --\n%s\n-- published --\n%s",
			measured.String(), published.String())
	}
	// Clean published data must not surface a quality section.
	if strings.Contains(published.String(), "quality:") {
		t.Errorf("clean published data produced a quality section:\n%s", published.String())
	}
}
