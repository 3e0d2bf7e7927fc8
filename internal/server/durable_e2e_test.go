package server

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
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

// TestDurableCrashRecoveryByteIdentical is the kill -9 acceptance arc, in
// process: a real projection job is interrupted mid-GA-search (the eval
// wedges, which is what a SIGKILL looks like to the WAL — a submit record,
// no terminal state), a fresh server opens the same data dir, resurrects
// the job under its original ID, re-runs it from its journalled payload,
// and produces a result document byte-identical to an uninterrupted run.
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

	// Crash run: the search wedges forever at its first reported
	// generation.
	dir := t.TempDir()
	block := make(chan struct{})
	defer close(block)
	wedged := make(chan struct{})
	var once sync.Once
	crashEval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		req.OnGAProgress = func(member, gen int, best float64) {
			once.Do(func() { close(wedged) })
			<-block
		}
		return swapp.ProjectContext(ctx, req)
	}
	s1, err := NewDurable(Config{Workers: 2, EvalWorkers: 8, DataDir: dir, Eval: crashEval})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newHTTPServer(t, s1)
	st := submitJob(t, ts1.URL, jobBodyLU)
	select {
	case <-wedged:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never reached its GA search")
	}
	// s1 is now "dead": its evaluation goroutines are wedged and will never
	// write another journal record or terminal state. No drain, no handoff.

	// Restart on the same data dir with the production eval.
	scope := obs.New("test")
	s2, err := NewDurable(Config{Workers: 2, EvalWorkers: 8, DataDir: dir, Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := scope.Metrics().Counter("jobs.recovered"); n != 1 {
		t.Fatalf("jobs.recovered = %d, want 1", n)
	}
	ts2 := newHTTPServer(t, s2)
	if got := jobStatus(t, ts2.URL, st.ID); got.ID != st.ID {
		t.Fatalf("recovered job lost its ID: %+v", got)
	}
	final := waitJobDone(t, ts2.URL, st.ID)
	if final.State != cluster.JobDone {
		t.Fatalf("recovered job state = %s (%s), want done", final.State, final.Error)
	}
	got := resultBytes(t, ts2.URL, st.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("recovered result differs from the uninterrupted run:\nrecovered: %s\ncontrol:   %s", got, want)
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

// TestDurableSnapshotRoundTrip: SaveSnapshot spills the layered store to
// DataDir and a fresh NewDurable on the same dir imports it — the artifact
// vault survives the restart, checksum-verified.
func TestDurableSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	stub := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		return stubResult(req), nil
	}
	s1, err := NewDurable(Config{Workers: 1, DataDir: dir, Eval: stub})
	if err != nil {
		t.Fatal(err)
	}
	s1.store.PutArtifact("result|smoke-1", []byte(`{"cached":true}`))
	if err := s1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	scope := obs.New("test")
	s2, err := NewDurable(Config{Workers: 1, DataDir: dir, Eval: stub, Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	body, ok := s2.store.GetArtifact("result|smoke-1")
	if !ok || string(body) != `{"cached":true}` {
		t.Fatalf("artifact after restart = %q, %v", body, ok)
	}
	if n, _ := scope.Metrics().Counter("server.snapshot_loaded"); n < 1 {
		t.Errorf("server.snapshot_loaded = %d, want >= 1", n)
	}

	// A corrupted snapshot file degrades to a cold cache, not a failed
	// startup.
	snapPath := filepath.Join(dir, snapshotFile)
	if err := os.WriteFile(snapPath, []byte(`{"version":1,"artifa`), 0o644); err != nil {
		t.Fatal(err)
	}
	failScope := obs.New("test")
	s3, err := NewDurable(Config{Workers: 1, DataDir: dir, Eval: stub, Obs: failScope})
	if err != nil {
		t.Fatalf("corrupt snapshot failed startup: %v", err)
	}
	defer s3.Close()
	if _, ok := s3.store.GetArtifact("result|smoke-1"); ok {
		t.Error("artifact served from a corrupt snapshot")
	}
	if n, _ := failScope.Metrics().Counter("server.snapshot_load_fails"); n != 1 {
		t.Errorf("server.snapshot_load_fails = %d, want 1", n)
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
