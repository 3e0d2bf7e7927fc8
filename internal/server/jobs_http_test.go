package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/cluster"
)

// submitJob POSTs one job and returns its decoded status document.
func submitJob(t *testing.T, url, body string) cluster.JobStatus {
	t.Helper()
	code, _, out := post(t, url+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("job submit status = %d: %s", code, out)
	}
	var st cluster.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("decoding job status: %v\n%s", err, out)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("job status missing id/state: %s", out)
	}
	return st
}

// jobStatus GETs one job's status document.
func jobStatus(t *testing.T, url, id string) cluster.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding job status: %v", err)
	}
	return st
}

// waitJobDone polls a job until it leaves the queued/running states.
func waitJobDone(t *testing.T, url, id string) cluster.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := jobStatus(t, url, id)
		if st.State == cluster.JobDone || st.State == cluster.JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 10s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// doneFrame is the one frame a job's event stream carries, for a job that
// ended in state.
func doneFrame(state cluster.JobState) string {
	return `event: done` + "\n" + `data: {"type":"done","state":"` + string(state) + `"}` + "\n\n"
}

// openEvents GETs a job's event stream and returns once its headers are in,
// having checked them; the caller reads the body.
func openEvents(t *testing.T, url, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("events: status %d, Content-Type %q; want 200 text/event-stream", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	return resp
}

// readEvents reads an event stream to its end.
func readEvents(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobsSubmitProgressSSEResult is the async round-trip: submit a
// projection job, follow its progress — running while its evaluation runs,
// its event stream open with nothing on it — until the stream's one done
// frame ends it, then fetch the result document and find it byte-identical
// to the synchronous endpoint's body.
func TestJobsSubmitProgressSSEResult(t *testing.T) {
	eval := &stubEval{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 2}, eval)

	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	waitFor(t, func() bool { return jobStatus(t, ts.URL, st.ID).State == cluster.JobRunning })
	live := openEvents(t, ts.URL, st.ID)
	close(eval.gate)
	if got := readEvents(t, live); got != doneFrame(cluster.JobDone) {
		t.Errorf("a stream opened while the job ran = %q, want the one done frame %q", got, doneFrame(cluster.JobDone))
	}
	if final := jobStatus(t, ts.URL, st.ID); final.State != cluster.JobDone || !final.HasResult {
		t.Fatalf("job after its stream ended = %+v, want done with a result", final)
	}

	// The result document is the endpoint's body, verbatim.
	_, _, want := post(t, ts.URL+"/v1/project", reqBT)
	if got := resultBytes(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Errorf("job result differs from the synchronous endpoint:\njob:  %s\nsync: %s", got, want)
	}
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("job then request ran %d evaluations, want 1", n)
	}
}

// TestJobPanicFailsThenResubmitByteIdentical: a job is one attempt. An
// evaluation that panics ends its job failed with the panic's message —
// contained: the daemon serves on, and the failed attempt cached nothing.
// Recovery is the client's: resubmitting the same request runs it from
// scratch to exactly the synchronous endpoint's bytes.
func TestJobPanicFailsThenResubmitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if runs.Add(1) == 1 { // the first job's run
			panic("injected worker fault")
		}
		return stubResult(req), nil
	}
	s := New(Config{Workers: 2, Eval: eval})
	ts := newHTTPServer(t, s)

	st := submitJob(t, ts.URL, `{"op":"project","request":`+reqBT+`}`)
	final := waitJobDone(t, ts.URL, st.ID)
	if final.State != cluster.JobFailed || !strings.Contains(final.Error, "injected worker fault") {
		t.Fatalf("job state = %s (%q), want failed with the panic's message", final.State, final.Error)
	}
	if runs.Load() != 1 {
		t.Errorf("the panicking evaluation ran %d times, want once: nothing is retried in place", runs.Load())
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("a failed job left %d entries in the result cache, want 0", n)
	}

	// The same request again is a new job, which finds nothing held, runs
	// from scratch and serves exactly the synchronous endpoint's bytes.
	again := submitJob(t, ts.URL, `{"op":"project","request":`+reqBT+`}`)
	if final := waitJobDone(t, ts.URL, again.ID); final.State != cluster.JobDone || runs.Load() != 2 {
		t.Fatalf("resubmitted job = %s (%s) after %d evaluations, want done after its own", final.State, final.Error, runs.Load())
	}
	code, hdr, want := post(t, ts.URL+"/v1/project", reqBT)
	if code != 200 || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("synchronous request after the job: status %d, X-Cache %q: %s", code, hdr.Get("X-Cache"), want)
	}
	if got := resultBytes(t, ts.URL, again.ID); !bytes.Equal(got, want) {
		t.Errorf("resubmitted job result differs from the synchronous endpoint:\njob:  %s\nsync: %s", got, want)
	}
}

// TestJobsAPIValidation covers the edges: bad ops and bodies are rejected
// up front, unknown jobs 404, and a result is not servable before it
// exists.
func TestJobsAPIValidation(t *testing.T) {
	gate := make(chan struct{})
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(req), nil
	}
	s := New(Config{Workers: 2, Eval: eval})
	ts := newHTTPServer(t, s)
	defer close(gate)

	if code, _, _ := post(t, ts.URL+"/v1/jobs", `{"op":"teleport","request":`+reqBT+`}`); code != 400 {
		t.Errorf("unknown op accepted with %d", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/jobs", `{"request":{"target":"power6-575","bench":"BT-MZ","class":"CD","ranks":16}}`); code != 400 {
		t.Errorf("bad class accepted with %d", code)
	}
	if code, err := httpGet(ts.URL + "/v1/jobs/job-999"); err != nil || code != 404 {
		t.Errorf("unknown job = %d, %v", code, err)
	}
	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("unfinished result = %d (Retry-After %q), want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, err := httpGet(ts.URL + "/v1/jobs/" + st.ID + "/confetti"); err != nil || code != 404 {
		t.Errorf("unknown sub-resource = %d, %v", code, err)
	}
	// The retired drain route is now just a non-GET under /v1/jobs/: 405
	// with Allow, no retry hint. Pinned because it is what a not yet
	// upgraded peer's drain sees when it tries to ship a job here — it
	// counts a failed handoff and its client resubmits.
	code, hdr, out := post(t, ts.URL+"/v1/jobs/handoff", `{"id":"job-1","op":"project","payload":"e30="}`)
	if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != http.MethodGet || hdr.Get("Retry-After") != "" {
		t.Errorf("POST /v1/jobs/handoff = %d (Allow %q, Retry-After %q): %s; want a plain 405",
			code, hdr.Get("Allow"), hdr.Get("Retry-After"), out)
	}
}

// TestJobsQueueFullRejects proves the jobs API has the same explicit
// overload behaviour as the synchronous path: submissions beyond the
// active+queued budget answer 503 with Retry-After. A replica that is
// shutting down answers 503 too, but without the hint: there will be
// nothing here to retry.
func TestJobsQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(req), nil
	}
	s := New(Config{Workers: 4, Eval: eval, JobsMaxActive: 1, JobsMaxQueued: 1})
	ts := newHTTPServer(t, s)
	defer close(gate)

	submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	code, hdr, _ := post(t, ts.URL+"/v1/jobs", `{"request":`+reqBT+`}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("over-budget submit = %d (Retry-After %q), want 503 with a hint", code, hdr.Get("Retry-After"))
	}

	s.Close()
	code, hdr, out := post(t, ts.URL+"/v1/jobs", `{"request":`+reqBT+`}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "" || !strings.Contains(string(out), "shutting down") {
		t.Errorf("submit to a closing replica = %d (Retry-After %q): %s; want 503 \"shutting down\" without a hint",
			code, hdr.Get("Retry-After"), out)
	}
}

// TestJobForHeldResultFinishesWithoutProgress: a job takes the path the
// synchronous endpoints take, so a result this replica already holds is the
// job's result — no second evaluation, done at once, the endpoint's bytes,
// and the stream's one done frame.
func TestJobForHeldResultFinishesWithoutProgress(t *testing.T) {
	eval := &stubEval{}
	_, ts := newTestServer(t, Config{Workers: 2}, eval)

	code, hdr, want := post(t, ts.URL+"/v1/project", reqBT)
	if code != 200 || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("priming request: status %d, X-Cache %q", code, hdr.Get("X-Cache"))
	}
	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	if final := waitJobDone(t, ts.URL, st.ID); final.State != cluster.JobDone {
		t.Errorf("job for a held result = %s (%s), want done", final.State, final.Error)
	}
	if got := readEvents(t, openEvents(t, ts.URL, st.ID)); got != doneFrame(cluster.JobDone) {
		t.Errorf("held job's stream = %q, want %q", got, doneFrame(cluster.JobDone))
	}
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("the job re-ran a held result: %d evaluations, want 1", n)
	}
	if got := resultBytes(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Errorf("job result differs from the endpoint that filled the cache:\njob:  %s\nsync: %s", got, want)
	}
}

// TestComputedJobFillsResultCache: what a job computes it leaves in the
// result LRU, so the follow-up synchronous request is a hit.
func TestComputedJobFillsResultCache(t *testing.T) {
	eval := &stubEval{}
	_, ts := newTestServer(t, Config{Workers: 2}, eval)

	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	if final := waitJobDone(t, ts.URL, st.ID); final.State != cluster.JobDone {
		t.Fatalf("computing job = %s (%s), want done", final.State, final.Error)
	}
	code, hdr, sync := post(t, ts.URL+"/v1/project", reqBT)
	if code != 200 || hdr.Get("X-Cache") != "hit" {
		t.Errorf("request after the job: status %d, X-Cache %q, want a hit", code, hdr.Get("X-Cache"))
	}
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("job then request ran %d evaluations, want 1", n)
	}
	if got := resultBytes(t, ts.URL, st.ID); !bytes.Equal(got, sync) {
		t.Errorf("job result differs from the hit it produced:\njob:  %s\nsync: %s", got, sync)
	}
}

// TestJobEventsAreOneDoneFrame pins the event stream: 200 text/event-stream
// at once, then exactly one frame, the done frame, when the job ends —
// whether the stream was opened while the job was queued, running, or after
// it finished or failed. A client that hangs up before the end returns the
// handler with nothing written after the headers.
func TestJobEventsAreOneDoneFrame(t *testing.T) {
	gate := make(chan struct{})
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if req.Ranks == 64 {
			return nil, errors.New("no such machine")
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(req), nil
	}
	s := New(Config{Workers: 2, Eval: eval, JobsMaxActive: 1})
	ts := newHTTPServer(t, s)
	// Cleanups run last-first: a failed test releases the gated jobs, and
	// with them their streams, before the listener waits on its handlers.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	body := func(ranks int) string {
		return fmt.Sprintf(`{"request":{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":%d}}`, ranks)
	}

	running := submitJob(t, ts.URL, body(16))
	waitFor(t, func() bool { return jobStatus(t, ts.URL, running.ID).State == cluster.JobRunning })
	queued := submitJob(t, ts.URL, body(32))
	if st := jobStatus(t, ts.URL, queued.ID); st.State != cluster.JobQueued {
		t.Fatalf("second job is %s, want queued behind JobsMaxActive 1", st.State)
	}
	whileRunning := openEvents(t, ts.URL, running.ID)
	whileQueued := openEvents(t, ts.URL, queued.ID)

	// A client that hangs up mid-run: the handler returns, and the stream
	// holds no frame.
	job, err := s.jobs.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+running.ID+"/events", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		s.serveJobEvents(w, r, job)
		close(returned)
	}()
	hangUp()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the events handler outlived its client")
	}
	if w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Errorf("hung-up stream: status %d, body %q; want 200 and no frame", w.Code, w.Body.String())
	}

	release()
	for name, resp := range map[string]*http.Response{"running": whileRunning, "queued": whileQueued} {
		if got := readEvents(t, resp); got != doneFrame(cluster.JobDone) {
			t.Errorf("stream opened while %s = %q, want %q", name, got, doneFrame(cluster.JobDone))
		}
	}
	failed := submitJob(t, ts.URL, body(64))
	waitJobDone(t, ts.URL, failed.ID)
	for id, state := range map[string]cluster.JobState{running.ID: cluster.JobDone, failed.ID: cluster.JobFailed} {
		if got := readEvents(t, openEvents(t, ts.URL, id)); got != doneFrame(state) {
			t.Errorf("stream of %s job %s = %q, want %q", state, id, got, doneFrame(state))
		}
	}
}
