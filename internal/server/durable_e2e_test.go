package server

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// jobBodyLU is the async-job submission used by the durability tests: a
// real (small) projection whose GA search streams per-generation progress.
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
// interrupted mid-GA-search; a fresh server opens the same data dir,
// resurrects the job under its original ID, re-runs it from its journalled
// payload — reading the characterisation the first server wrote instead of
// re-simulating it — and produces a result document byte-identical to an
// uninterrupted run.
//
//	kill   the eval wedges for good, which is what SIGKILL looks like to
//	       the data dir: a submit record, no terminal state, no Close.
//	close  SIGTERM's path: Close cancels the search, the job ends failed
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
// returns once the job's GA search has reported its first generation and
// parked there. The search stays parked until its context is cancelled
// (Close) or the test ends.
func interruptMidSearch(t *testing.T, dir string) (s *Server, url, id string) {
	t.Helper()
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	wedged := make(chan struct{})
	var once sync.Once
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		req.OnGAProgress = func(member, gen int, best float64) {
			once.Do(func() { close(wedged) })
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return swapp.ProjectContext(ctx, req)
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
		t.Fatal("the job never reached its GA search")
	}
	return s, ts.URL, st.ID
}

// recoverAndCompare restarts on dir with the production eval and checks the
// one way back: exactly one job recovered, under its original ID, finishing
// with want's bytes, its characterisation read from disk rather than built.
func recoverAndCompare(t *testing.T, dir, id string, want []byte) {
	t.Helper()
	scope := obs.New("test")
	s2, err := NewDurable(Config{Workers: 2, EvalWorkers: 8, DataDir: dir, Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := counter(scope, "jobs.recovered"); n != 1 {
		t.Fatalf("jobs.recovered = %d, want 1", n)
	}
	ts2 := newHTTPServer(t, s2)
	if got := jobStatus(t, ts2.URL, id); got.ID != id {
		t.Fatalf("recovered job lost its ID: %+v", got)
	}
	final := waitJobDone(t, ts2.URL, id)
	if final.State != cluster.JobDone {
		t.Fatalf("recovered job state = %s (%s), want done", final.State, final.Error)
	}
	if got := resultBytes(t, ts2.URL, id); !bytes.Equal(got, want) {
		t.Errorf("recovered result differs from the uninterrupted run:\nrecovered: %s\ncontrol:   %s", got, want)
	}
	misses := counter(scope, "server.cache.characterisation_misses")
	if hits, writes := counter(scope, "server.cache.characterisation_disk_hits"), counter(scope, "server.cache.characterisation_disk_writes"); hits != misses || writes != 0 || misses == 0 {
		t.Errorf("restart: characterisation misses=%d disk hits=%d writes=%d, want every miss read from disk and nothing rebuilt", misses, hits, writes)
	}
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

// reqBT64 is the restart-to-first-result request: the paper's BT-MZ class C
// at 64 ranks, hydra to power6-575 — ten characterisation entries.
const reqBT64 = `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":64}`

// TestDurableRestartReadsCharacterisationFromDisk: a server restarted on a
// used data dir answers its first request without running a single SPEC
// suite or IMB table — every characterisation miss resolves from a file the
// previous process wrote as it built it — and the body is byte-identical to
// a from-scratch control. It holds after an abandoned (never closed) first
// server as after a clean Close: nothing is written at shutdown. The proof
// is the counters; the logged times are the measurement, not the assertion.
func TestDurableRestartReadsCharacterisationFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real evaluations")
	}
	first := func(s *Server) ([]byte, time.Duration) {
		t.Helper()
		ts := newHTTPServer(t, s)
		t0 := time.Now()
		code, _, body := post(t, ts.URL+"/v1/project", reqBT64)
		if code != 200 {
			t.Fatalf("project status = %d: %s", code, body)
		}
		return body, time.Since(t0)
	}
	ctrl := New(Config{Workers: 2})
	defer ctrl.Close()
	want, cold := first(ctrl)
	t.Logf("first /v1/project, no data dir:               %v", cold.Round(time.Millisecond))

	dir := t.TempDir()
	scope1 := obs.New("test")
	s1, err := NewDurable(Config{Workers: 2, DataDir: dir, Obs: scope1})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	got, took := first(s1)
	t.Logf("first /v1/project, empty data dir:            %v", took.Round(time.Millisecond))
	if !bytes.Equal(got, want) {
		t.Error("writing characterisation through to disk changed the served bytes")
	}
	built := counter(scope1, "server.cache.characterisation_misses")
	if writes := counter(scope1, "server.cache.characterisation_disk_writes"); built == 0 || writes != built {
		t.Fatalf("first server: %d characterisation misses, %d disk writes; want every built entry written", built, writes)
	}

	restart := func(after string) {
		t.Helper()
		scope := obs.New("test")
		s, err := NewDurable(Config{Workers: 2, DataDir: dir, Obs: scope})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, took := first(s)
		t.Logf("first /v1/project, restart after %-12s %v", after+":", took.Round(time.Millisecond))
		if !bytes.Equal(got, want) {
			t.Errorf("after %s: restarted server served different bytes than the from-scratch control", after)
		}
		hits := counter(scope, "server.cache.characterisation_disk_hits")
		writes := counter(scope, "server.cache.characterisation_disk_writes")
		rejects := counter(scope, "server.cache.characterisation_disk_rejects")
		if hits != built || writes != 0 || rejects != 0 {
			t.Errorf("after %s: disk hits=%d writes=%d rejects=%d, want %d/0/0 — some characterisation was rebuilt", after, hits, writes, rejects, built)
		}
	}
	restart("abandonment") // s1 is still open: nothing was flushed for us
	restart("Close")       // the restart above has been closed
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
