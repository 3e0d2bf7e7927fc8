package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
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

// TestJobsSubmitProgressSSEResult is the async round-trip: submit a
// projection job whose evaluation reports per-generation GA progress, watch
// the SSE stream replay and finish with exactly one done event, then fetch
// the result document and find it byte-identical to the synchronous
// endpoint's body.
func TestJobsSubmitProgressSSEResult(t *testing.T) {
	const gens = 4
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		for g := 0; g < gens; g++ {
			if req.OnGAProgress != nil {
				req.OnGAProgress(0, g, float64(10-g))
			}
		}
		return stubResult(req), nil
	}
	s := New(Config{Workers: 2, Eval: eval})
	ts := newHTTPServer(t, s)

	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	final := waitJobDone(t, ts.URL, st.ID)
	if final.State != cluster.JobDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	if final.Snapshots != gens || len(final.Progress) != gens {
		t.Errorf("job recorded %d snapshots (%d retained), want %d", final.Snapshots, len(final.Progress), gens)
	}
	for g, snap := range final.Progress {
		if snap.Member != 0 || snap.Generation != g || snap.BestFitness != float64(10-g) {
			t.Errorf("snapshot %d = %+v", g, snap)
		}
	}

	// SSE on a finished job: history replay then one done event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var progress, done int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev cluster.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			progress++
			if ev.Snapshot == nil {
				t.Error("progress event without snapshot")
			}
		case "done":
			done++
			if ev.State != cluster.JobDone {
				t.Errorf("done event state = %s", ev.State)
			}
		}
	}
	if progress != gens || done != 1 {
		t.Errorf("SSE stream had %d progress + %d done events, want %d + 1", progress, done, gens)
	}

	// The result document is the endpoint's body, verbatim.
	_, _, want := post(t, ts.URL+"/v1/project", reqBT)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("job result (status %d) differs from the synchronous endpoint:\njob:  %s\nsync: %s",
			resp.StatusCode, got.Bytes(), want)
	}
}

// TestJobPanicFailsThenResubmitByteIdentical: a job is one attempt. An
// evaluation that reports progress then panics mid-search ends its job failed
// with the panic's message — contained: the daemon serves on, and the failed
// attempt cached nothing. Recovery is the client's: resubmitting the same
// request runs it from scratch to exactly the synchronous endpoint's bytes.
func TestJobPanicFailsThenResubmitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if req.OnGAProgress != nil { // a job's run, not the synchronous control
			req.OnGAProgress(1, 0, 9)
			req.OnGAProgress(0, 0, 8)
			if runs.Add(1) == 1 {
				panic("injected worker fault")
			}
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
	if final := waitJobDone(t, ts.URL, again.ID); final.State != cluster.JobDone || final.Snapshots != 2 {
		t.Fatalf("resubmitted job = %s with %d snapshots (%s), want done with its own 2", final.State, final.Snapshots, final.Error)
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

// progressEval is a stub evaluation that reports gens GA generations when
// its caller tapped the search — which only a computing job does.
func progressEval(gens int, calls *atomic.Int64) EvalFunc {
	return func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		calls.Add(1)
		for g := 0; g < gens && req.OnGAProgress != nil; g++ {
			req.OnGAProgress(0, g, float64(10-g))
		}
		return stubResult(req), nil
	}
}

// TestJobForHeldResultFinishesWithoutProgress: a job takes the path the
// synchronous endpoints take, so a result this replica already holds is the
// job's result — no second evaluation, no progress to stream, the endpoint's
// bytes.
func TestJobForHeldResultFinishesWithoutProgress(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 2, Eval: progressEval(4, &calls)})
	ts := newHTTPServer(t, s)

	code, hdr, want := post(t, ts.URL+"/v1/project", reqBT)
	if code != 200 || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("priming request: status %d, X-Cache %q", code, hdr.Get("X-Cache"))
	}
	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	final := waitJobDone(t, ts.URL, st.ID)
	if final.State != cluster.JobDone || final.Snapshots != 0 {
		t.Errorf("job for a held result = %s with %d snapshots (%s), want done, 0",
			final.State, final.Snapshots, final.Error)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the job re-ran a held result: %d evaluations, want 1", n)
	}
	if got := resultBytes(t, ts.URL, st.ID); !bytes.Equal(got, want) {
		t.Errorf("job result differs from the endpoint that filled the cache:\njob:  %s\nsync: %s", got, want)
	}
}

// TestComputedJobFillsResultCache: what a job computes it leaves in the
// result LRU, so the follow-up synchronous request is a hit.
func TestComputedJobFillsResultCache(t *testing.T) {
	const gens = 4
	var calls atomic.Int64
	s := New(Config{Workers: 2, Eval: progressEval(gens, &calls)})
	ts := newHTTPServer(t, s)

	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	if final := waitJobDone(t, ts.URL, st.ID); final.State != cluster.JobDone || final.Snapshots != gens {
		t.Fatalf("computing job = %s with %d snapshots (%s), want done with %d", final.State, final.Snapshots, final.Error, gens)
	}
	code, hdr, sync := post(t, ts.URL+"/v1/project", reqBT)
	if code != 200 || hdr.Get("X-Cache") != "hit" {
		t.Errorf("request after the job: status %d, X-Cache %q, want a hit", code, hdr.Get("X-Cache"))
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("job then request ran %d evaluations, want 1", n)
	}
	if got := resultBytes(t, ts.URL, st.ID); !bytes.Equal(got, sync) {
		t.Errorf("job result differs from the hit it produced:\njob:  %s\nsync: %s", got, sync)
	}
}
