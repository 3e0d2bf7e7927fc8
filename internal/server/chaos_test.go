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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// postEval sends one /v1/project request and returns the response.
func postEval(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/project", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

const chaosBody = `{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":16}`

// TestEvalPanicBecomes500 is the serving half of the acceptance scenario:
// a panic inside one evaluation becomes a clean 500, the panic is counted,
// the error is not cached, and the identical follow-up request succeeds —
// the daemon survives its pipeline blowing up.
func TestEvalPanicBecomes500(t *testing.T) {
	var calls atomic.Int64
	scope := obs.New("test")
	s := New(Config{Workers: 2, Obs: scope, Eval: func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if calls.Add(1) == 1 {
			panic("evaluation blows up")
		}
		return stubResult(req), nil
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp := postEval(t, ts.URL, chaosBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked evaluation: status %d, want 500", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("500 body not JSON: %v", err)
	}
	if apiErr.Error == "" {
		t.Error("500 body carries no error message")
	}
	if got := metricValue(t, scope, "server.panics"); got != 1 {
		t.Errorf("server.panics = %v, want 1", got)
	}

	// The error was not cached: the same request now evaluates cleanly.
	resp2 := postEval(t, ts.URL, chaosBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up after panic: status %d, want 200", resp2.StatusCode)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d evaluations, want 2: the panicked one and the follow-up", n)
	}
}

// TestHandlerPanicRecovered proves the recovery middleware catches panics
// raised outside the evaluation path too: it wraps a handler that panics
// on its first request and serves the API after.
func TestHandlerPanicRecovered(t *testing.T) {
	scope := obs.New("test")
	s := New(Config{Workers: 1, Obs: scope, Eval: (&stubEval{}).fn})
	api := s.Handler()
	var panicked atomic.Bool
	ts := httptest.NewServer(s.recovered(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if panicked.CompareAndSwap(false, true) {
			panic("handler dies")
		}
		api.ServeHTTP(w, r)
	})))
	t.Cleanup(ts.Close)

	resp := postEval(t, ts.URL, chaosBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("handler panic: status %d, want 500", resp.StatusCode)
	}
	if got := metricValue(t, scope, "server.panics"); got != 1 {
		t.Errorf("server.panics = %v, want 1", got)
	}
	if resp2 := postEval(t, ts.URL, chaosBody); resp2.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the handler panic: %d", resp2.StatusCode)
	}
}

// TestPanickingLeaderReleasesFollowers pins the nastiest interaction:
// a singleflight leader whose evaluation panics must still release its
// worker slot and fail its joined followers — not strand them on a done
// channel that never closes.
func TestPanickingLeaderReleasesFollowers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var first sync.Once
	evalFn := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		leader := false
		first.Do(func() { leader = true })
		if leader {
			close(started)
			<-release // hold the singleflight slot while followers join
			panic("leader evaluation dies")
		}
		return stubResult(req), nil
	}
	s := New(Config{Workers: 1, Eval: evalFn})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/project", "application/json", bytes.NewBufferString(chaosBody))
		if err != nil {
			return 0
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	leaderCode := make(chan int, 1)
	go func() { leaderCode <- post() }()
	<-started
	const followers = 3
	var wg sync.WaitGroup
	codes := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post()
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let followers join the in-flight call
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("followers stranded after leader panic")
	}
	if c := <-leaderCode; c != http.StatusInternalServerError {
		t.Errorf("leader: status %d, want 500", c)
	}
	for i, c := range codes {
		if c != http.StatusInternalServerError {
			t.Errorf("follower %d: status %d, want 500", i, c)
		}
	}
	// The worker slot was released: a fresh request evaluates fine.
	if c := post(); c != http.StatusOK {
		t.Errorf("post-panic request: status %d, want 200 (slot leaked?)", c)
	}
}

// TestFailuresRefuseNothing: there is no breaker around the evaluation. A
// run of failed evaluations — one client's bad input, say — is ten 500s and
// nothing more: the next valid request is evaluated and answered 200, and so
// is a job submitted after them.
func TestFailuresRefuseNothing(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 1, Eval: func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if calls.Add(1) <= 10 {
			return nil, errors.New("evaluation fails")
		}
		return stubResult(req), nil
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Distinct ranks, each a valid request, dodge the cache and singleflight.
	for i := 1; i <= 10; i++ {
		body := fmt.Sprintf(`{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":%d}`, i+1)
		if resp := postEval(t, ts.URL, body); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if resp := postEval(t, ts.URL, chaosBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after ten failures: status %d, want 200", resp.StatusCode)
	}
	st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
	if final := waitJobDone(t, ts.URL, st.ID); final.State != cluster.JobDone {
		t.Errorf("job after ten failures = %s (%q), want done", final.State, final.Error)
	}
	if n := calls.Load(); n != 12 {
		t.Errorf("%d evaluations, want 12: ten failures, then the request's and the job's", n)
	}
}

// metricValue reads one counter out of the scope's metrics snapshot.
func metricValue(t *testing.T, scope *obs.Scope, name string) int64 {
	t.Helper()
	v, _ := scope.Metrics().Counter(name)
	return v
}
