package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// jobBodyLU is the async-job submission used by the durability tests: a
// real (small) projection.
const jobBodyLU = `{"op":"project","request":{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":16}}`

// resultBytes fetches a finished job's result document.
func resultBytes(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestDurableCrashRecoveryByteIdentical is the down-and-back acceptance arc,
// in process, for both ways a replica stops. A real projection job is
// interrupted while it runs; a fresh server opens the same data dir,
// resurrects the job under its original ID, re-runs it from its journalled
// payload — from a cold store, as a fresh replica would — and produces a
// result document byte-identical to an uninterrupted run.
//
//	kill   the eval wedges for good, which is what SIGKILL looks like to
//	       the data dir: a submit record, no terminal state, no Close.
//	close  SIGTERM's path: Close cancels the run, the job ends failed
//	       on the stopping replica — and the data dir looks the same.
func TestDurableCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real GA searches")
	}
	// Control: the same job on a plain in-memory server, uninterrupted.
	ctrl := New(Config{Workers: 2, EvalWorkers: 8})
	tsCtrl := newHTTPServer(t, ctrl)
	ctrlSt := submitJob(t, tsCtrl.URL, jobBodyLU)
	if final := waitJobDone(t, tsCtrl.URL, ctrlSt.ID); final.State != cluster.JobDone {
		t.Fatalf("control job state = %s (%s)", final.State, final.Error)
	}
	want := resultBytes(t, tsCtrl.URL, ctrlSt.ID)

	t.Run("kill", func(t *testing.T) {
		dir := t.TempDir()
		// The first server is abandoned: its evaluation goroutines are
		// wedged and will never write another journal record.
		_, _, id := interruptMidSearch(t, dir)
		recoverAndCompare(t, dir, id, want)
	})
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		s1, url, id := interruptMidSearch(t, dir)
		s1.Close()
		final := waitJobDone(t, url, id)
		if final.State != cluster.JobFailed || final.Error != "replica shut down before the job finished" {
			t.Fatalf("closed replica reports the job %s (%q), want failed with the shutdown message", final.State, final.Error)
		}
		recoverAndCompare(t, dir, id, want)
	})
}

// interruptMidSearch starts a durable server on dir, submits jobBodyLU and
// returns once the job's evaluation has started and parked, before its
// projection. It stays parked until its context is cancelled (Close) or the
// test ends, and then fails: the park stands for a run cut short.
func interruptMidSearch(t *testing.T, dir string) (s *Server, url, id string) {
	t.Helper()
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	wedged := make(chan struct{})
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		close(wedged)
		select {
		case <-block:
			return nil, errors.New("parked evaluation released")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, err := NewDurable(Config{Workers: 2, EvalWorkers: 8, DataDir: dir, Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	st := submitJob(t, ts.URL, jobBodyLU)
	select {
	case <-wedged:
	case <-time.After(30 * time.Second):
		t.Fatal("the job's evaluation never started")
	}
	return s, ts.URL, st.ID
}

// recoverAndCompare restarts on dir with the production eval and checks the
// one way back: exactly one job recovered, under its original ID, finishing
// with want's bytes.
func recoverAndCompare(t *testing.T, dir, id string, want []byte) {
	t.Helper()
	s2, url := restartOn(t, dir, 1)
	defer s2.Close()
	if got := jobStatus(t, url, id); got.ID != id {
		t.Fatalf("recovered job lost its ID: %+v", got)
	}
	final := waitJobDone(t, url, id)
	if final.State != cluster.JobDone {
		t.Fatalf("recovered job state = %s (%s), want done", final.State, final.Error)
	}
	if got := resultBytes(t, url, id); !bytes.Equal(got, want) {
		t.Errorf("recovered result differs from the uninterrupted run:\nrecovered: %s\ncontrol:   %s", got, want)
	}
}

// restartOn opens a durable server with the production eval on dir and
// checks it recovered exactly the given number of jobs.
func restartOn(t *testing.T, dir string, recovered int64) (*Server, string) {
	t.Helper()
	scope := obs.New("test")
	s, err := NewDurable(Config{Workers: 2, EvalWorkers: 8, DataDir: dir, Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	if n := counter(scope, "jobs.recovered"); n != recovered {
		s.Close()
		t.Fatalf("jobs.recovered = %d, want %d", n, recovered)
	}
	return s, newHTTPServer(t, s).URL
}

// TestNewDurableWithoutDataDirIsNew: an empty DataDir must degrade to the
// plain in-memory constructor — no journal, no files, same serving path.
func TestNewDurableWithoutDataDirIsNew(t *testing.T) {
	s, err := NewDurable(Config{Workers: 1, Eval: func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		return stubResult(req), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.journal != nil {
		t.Fatal("DataDir-less server grew a journal")
	}
	ts := newHTTPServer(t, s)
	if code, _, _ := post(t, ts.URL+"/v1/project", reqBT); code != 200 {
		t.Errorf("project status = %d", code)
	}
}

// TestJobDeadlineIsTheRequests: a job runs under its request's timeout_ms,
// as a request or batch member does, from the moment it takes a slot. It
// ends failed with the deadline's error and, having reached a terminal state
// on its own, journals its done record, so no restart re-runs it.
func TestJobDeadlineIsTheRequests(t *testing.T) {
	sc := obs.New("test")
	s, err := NewDurable(Config{Workers: 1, DataDir: t.TempDir(), Obs: sc, Eval: func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)
	body := `{"request":{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16,"timeout_ms":50}}`
	st := submitJob(t, ts.URL, body)
	final := waitJobDone(t, ts.URL, st.ID)
	if final.State != cluster.JobFailed || !strings.Contains(final.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("job = %s (%q), want failed on its deadline", final.State, final.Error)
	}
	pending, err := s.journal.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := sc.Metrics().Counter("durable.wal_records"); len(pending) != 0 || n != 2 {
		t.Errorf("pending = %+v, %d records; want none pending, submit + done", pending, n)
	}
}

// reqBT64 is the restart-to-first-result request: the paper's BT-MZ class C
// at 64 ranks, hydra to power6-575 — ten characterisation entries.
const reqBT64 = `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":64}`

// projectBytes posts body to /v1/project and returns the 200's bytes.
func projectBytes(t *testing.T, url, body string) []byte {
	t.Helper()
	code, _, got := post(t, url+"/v1/project", body)
	if code != 200 {
		t.Fatalf("project status = %d: %s", code, got)
	}
	return got
}

// TestDurableIgnoresOldCharacterisationDir: a data dir written by an
// earlier build holds a characterisation/ directory of table files beside
// its journal. A replica started on it reads none of them — one is corrupt
// — and removes none: it recovers its journalled job and answers its first
// request with bytes equal to a from-scratch control, after the previous
// process was abandoned mid-job (kill -9) as after a clean Close.
func TestDurableIgnoresOldCharacterisationDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real evaluations")
	}
	ctrl := New(Config{Workers: 2, EvalWorkers: 8})
	defer ctrl.Close()
	tsCtrl := newHTTPServer(t, ctrl)
	want := projectBytes(t, tsCtrl.URL, reqBT64)
	ctrlJob := submitJob(t, tsCtrl.URL, jobBodyLU)
	if final := waitJobDone(t, tsCtrl.URL, ctrlJob.ID); final.State != cluster.JobDone {
		t.Fatalf("control job state = %s (%s)", final.State, final.Error)
	}
	wantJob := resultBytes(t, tsCtrl.URL, ctrlJob.ID)

	dir := t.TempDir()
	old := filepath.Join(dir, "characterisation")
	files := map[string][]byte{
		"3f9a0c7e5b21d4866a0f1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60":     []byte(`{"key":"imb|\"hydra\"|64|nas","sum":"00","body":"e30="}`),
		"c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00":     {0xff, 0x00, '{', '"', 0x17},
		"c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00.tmp": nil,
	}
	if err := os.Mkdir(old, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(old, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The first replica is abandoned with its job mid-search.
	_, _, id := interruptMidSearch(t, dir)

	s2, url := restartOn(t, dir, 1)
	if final := waitJobDone(t, url, id); final.State != cluster.JobDone {
		t.Fatalf("recovered job state = %s (%s), want done", final.State, final.Error)
	}
	if got := resultBytes(t, url, id); !bytes.Equal(got, wantJob) {
		t.Error("after abandonment: the recovered job's result differs from the control's")
	}
	if got := projectBytes(t, url, reqBT64); !bytes.Equal(got, want) {
		t.Error("after abandonment: the restarted replica served different bytes than the from-scratch control")
	}
	s2.Close()

	// The job finished and journalled its done record: nothing to recover.
	s3, url := restartOn(t, dir, 0)
	defer s3.Close()
	if got := projectBytes(t, url, reqBT64); !bytes.Equal(got, want) {
		t.Error("after Close: the restarted replica served different bytes than the from-scratch control")
	}

	ents, err := os.ReadDir(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(files) {
		t.Errorf("%s holds %d entries after the restarts, want the %d left in it", old, len(ents), len(files))
	}
	for name, data := range files {
		if got, err := os.ReadFile(filepath.Join(old, name)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: %q, %v after the restarts; want it untouched", name, got, err)
		}
	}
}

// TestDurableDataDirHoldsOnlyJournal: the job journal is the data dir's
// only content after a computed request and a computed job — nothing the
// store builds reaches the disk.
func TestDurableDataDirHoldsOnlyJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real evaluations")
	}
	dir := t.TempDir()
	s, err := NewDurable(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)
	projectBytes(t, ts.URL, reqBT)
	st := submitJob(t, ts.URL, jobBodyLU)
	if final := waitJobDone(t, ts.URL, st.ID); final.State != cluster.JobDone {
		t.Fatalf("job = %s (%q), want done", final.State, final.Error)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "journal" || !ents[0].IsDir() {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("data dir holds %v, want only journal/", names)
	}
}

// TestDurableCloseReleasesJournal: Close closes the journal, not just syncs
// it — reopening one data dir over and over must not accumulate WAL
// descriptors — and closing twice is harmless.
func TestDurableCloseReleasesJournal(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	cycle := func() {
		s, err := NewDurable(Config{Workers: 1, DataDir: dir, Eval: func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
			return stubResult(req), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.Close()
	}
	cycle() // settle one-time descriptors (the data dir itself leaves none)
	before := openFDs()
	for i := 0; i < 16; i++ {
		cycle()
	}
	if after := openFDs(); after > before {
		t.Errorf("16 open/close cycles grew the descriptor table from %d to %d", before, after)
	}
}
