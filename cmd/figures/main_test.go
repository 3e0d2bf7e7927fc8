package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInvocations pins the CLI error contract: bad output paths and
// malformed selections fail fast — before any generation work — with a
// one-line actionable message and a non-zero exit.
func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	plainFile := filepath.Join(dir, "plain.txt")
	if err := os.WriteFile(plainFile, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		code int
		frag string // must appear on stderr
	}{
		{"no selection", nil, 2, "Usage"},
		{"figure out of range", []string{"-fig", "12"}, 2, "3–9"},
		{"figure not a number", []string{"-fig", "six"}, 2, "fig"},
		{"unwritable trace", []string{"-table2", "-trace", filepath.Join(dir, "no", "such", "t.json")}, 1, "trace"},
		{"csv dir under a file", []string{"-table2", "-csv", filepath.Join(plainFile, "sub")}, 1, "CSV"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %q)", code, tc.code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty on failure: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.frag) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.frag)
			}
		})
	}
}

// TestTable2Succeeds keeps the happy path honest: the one artifact that
// needs no evaluation renders to stdout with exit 0.
func TestTable2Succeeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table2", "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 2") {
		t.Errorf("stdout does not contain Table 2:\n%s", stdout.String())
	}
}

// TestEvaluationMatchesReference pins the paper's evaluation: `figures
// -all -q` must print, byte for byte, the block of the reference file from
// Table 2 through the summary's overall-mean line (and the blank line
// every artifact is followed by).
func TestEvaluationMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the full evaluation grid; skipped with -short")
	}
	data, err := os.ReadFile("../../docs/evaluation_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	ref := string(data)
	start := strings.Index(ref, "Table 2.")
	last := strings.Index(ref, "overall mean |error| = ")
	if start < 0 || last < start {
		t.Fatal("reference file lacks the Table 2 … overall mean block")
	}
	want := ref[start:last+strings.IndexByte(ref[last:], '\n')+1] + "\n"

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-all", "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %q)", code, stderr.String())
	}
	if got := stdout.String(); got != want {
		t.Errorf("figures -all -q drifted from docs/evaluation_reference.txt.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
