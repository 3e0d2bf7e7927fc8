package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/server"
)

// addrWriter captures run's stdout and signals once the "listening on"
// line arrives, carrying the bound address.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func newAddrWriter() *addrWriter { return &addrWriter{addr: make(chan string, 1)} }

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if s := w.buf.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			if i := strings.IndexByte(line, '\n'); i >= 0 {
				w.sent = true
				w.addr <- strings.TrimSpace(line[:i])
			}
		}
	}
	return len(p), nil
}

// stubEval is a blocking evaluation stub: it parks until release closes
// (or the request dies), so the drain test has real in-flight work.
func stubEval(started *atomic.Int64, release <-chan struct{}) server.EvalFunc {
	return func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		started.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		comm := &core.CommProjection{Ranks: req.Ranks, WaitScale: 1,
			Routines: []*core.RoutineProjection{{Routine: mpi.RoutineBcast, Class: mpi.ClassCollective,
				Calls: 1, BaseElapsed: 1, BaseTransfer: 1, TargetTransfer: 0.5}}}
		proj := &core.Projection{App: "stub", Target: req.Target, Ck: req.Ranks,
			Compute: &core.ComputeProjection{BaseTime: 2, TargetTime: 1},
			Gamma:   1, ComputeTime: 1, Comm: comm, CommTime: comm.TargetTotal(), Total: 1 + comm.TargetTotal()}
		return &swapp.Result{Request: req, Projection: proj}, nil
	}
}

// TestSigtermDrainsInflight proves the shutdown contract: a SIGTERM
// arriving while an evaluation runs lets that request finish with 200,
// then the daemon exits 0.
func TestSigtermDrainsInflight(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	evalOverride = stubEval(&started, release)
	defer func() { evalOverride = nil }()

	stdout := newAddrWriter()
	var stderr bytes.Buffer
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-grace", "30s"}, stdout, &stderr, sig)
	}()
	var addr string
	select {
	case addr = <-stdout.addr:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never reported its address")
	}

	// Health first, then park one projection in the evaluator.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	type reqResult struct {
		code int
		body []byte
	}
	inflight := make(chan reqResult, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/project", "application/json",
			strings.NewReader(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`))
		if err != nil {
			inflight <- reqResult{code: -1}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- reqResult{code: resp.StatusCode, body: b}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started.Load() == 0 {
		t.Fatal("evaluation never started")
	}

	// SIGTERM with the evaluation still parked: the daemon must wait.
	sig <- os.Interrupt
	select {
	case code := <-exit:
		t.Fatalf("daemon exited %d before the in-flight request finished", code)
	case <-time.After(200 * time.Millisecond):
	}

	close(release)
	select {
	case r := <-inflight:
		if r.code != 200 {
			t.Errorf("in-flight request finished with %d (%s), want 200", r.code, r.body)
		}
		if !bytes.Contains(r.body, []byte(`"total_seconds"`)) {
			t.Errorf("drained response is not a projection: %s", r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("drained daemon exited %d, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited after drain")
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("stderr missing drain log: %q", stderr.String())
	}
}

// TestBadFlags pins the usage exit code.
func TestBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut, nil); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestHalfConfiguredRingIsRejected: -self without -peers, or -peers
// without -self, exits 2 naming the missing flag instead of serving
// standalone. The signal is already queued, so a run that starts serving
// drains at once and returns 0.
func TestHalfConfiguredRingIsRejected(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		missing string
	}{
		{[]string{"-peers", "http://127.0.0.1:1"}, "-self"},
		{[]string{"-self", "http://127.0.0.1:1"}, "-peers"},
		{[]string{"-self", "http://127.0.0.1:1", "-peers", ","}, "-peers"},
	} {
		sig := make(chan os.Signal, 1)
		sig <- os.Interrupt
		var out, errOut bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		if code := run(args, &out, &errOut, sig); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, errOut.String())
		} else if !strings.Contains(errOut.String(), tc.missing+" is missing") {
			t.Errorf("%q: stderr %q does not name %s", tc.args, errOut.String(), tc.missing)
		}
	}
}

// TestListenFailure pins the error path for an unusable address.
func TestListenFailure(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:1"}, &out, &errOut, nil); code != 1 {
		t.Errorf("bad address: exit %d, want 1 (stderr %q)", code, errOut.String())
	}
}

// TestREADMEFlagTableIsComplete keeps README's swappd flag table honest in
// both directions: every flag `swappd -h` lists has a row, and every row
// names a flag that still exists.
func TestREADMEFlagTableIsComplete(t *testing.T) {
	var out, usage bytes.Buffer
	if code := run([]string{"-h"}, &out, &usage, nil); code != 2 {
		t.Fatalf("swappd -h: exit %d, want 2", code)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			flags[name] = true
		}
	}
	if len(flags) != 15 {
		t.Errorf("swappd -h lists %d flags, want 15; a new flag needs a reason, a removed one a smaller number here", len(flags))
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "### `swappd` flags\n")
	if !ok {
		t.Fatal("README.md has no \"### `swappd` flags\" section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if name, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ = strings.Cut(name, "`")
			name, _, _ = strings.Cut(name, " ")
			rows[name] = true
		}
	}
	for name := range flags {
		if !rows[name] {
			t.Errorf("README's swappd flag table has no row for -%s", name)
		}
	}
	for name := range rows {
		if !flags[name] {
			t.Errorf("README's swappd flag table documents -%s, which swappd -h does not list", name)
		}
	}
}
