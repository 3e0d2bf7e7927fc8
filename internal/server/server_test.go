package server

import (
	"bytes"
	"context"
	"encoding/json"
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
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// stubResult fabricates a small but fully-populated result for a request,
// so handlers render every section without running the pipeline.
func stubResult(req swapp.Request) *swapp.Result {
	comm := &core.CommProjection{
		Ranks:     req.Ranks,
		WaitScale: 1.25,
		Routines: []*core.RoutineProjection{
			{Routine: mpi.RoutineBcast, Class: mpi.ClassCollective, Calls: 2,
				BaseElapsed: 0.2, BaseTransfer: 0.15, BaseWait: 0.05, TargetTransfer: 0.1, TargetWait: 0.06},
		},
	}
	proj := &core.Projection{
		App:    fmt.Sprintf("%s.%c", req.Bench, req.Class),
		Target: req.Target,
		Ck:     req.Ranks,
		Compute: &core.ComputeProjection{
			Surrogate: []core.SurrogateTerm{{Bench: "437.leslie3d", Weight: 1}},
			CharCount: req.Ranks, BaseTime: 2, TargetTime: 1,
			Ranking: [6]int{1, 2, 3, 4, 5, 6},
		},
		Gamma:       1,
		ComputeTime: 1,
		Comm:        comm,
		CommTime:    comm.TargetTotal(),
	}
	proj.Total = proj.ComputeTime + proj.CommTime
	return &swapp.Result{Request: req, Projection: proj}
}

// stubEval counts evaluations and optionally blocks until released (or the
// request context dies).
type stubEval struct {
	calls atomic.Int64
	gate  chan struct{} // nil: return immediately; else wait for close/ctx
}

func (e *stubEval) fn(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
	e.calls.Add(1)
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return stubResult(req), nil
}

// newTestServer wires a stub-backed Server into an httptest listener.
func newTestServer(t *testing.T, cfg Config, eval *stubEval) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Eval = eval.fn
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one API request and returns status, headers and body.
func post(t testing.TB, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

const reqBT = `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`

func TestCacheHitSecondRequest(t *testing.T) {
	eval := &stubEval{}
	scope := obs.New("test")
	_, ts := newTestServer(t, Config{Workers: 2, Obs: scope}, eval)

	code1, hdr1, body1 := post(t, ts.URL+"/v1/project", reqBT)
	code2, hdr2, body2 := post(t, ts.URL+"/v1/project", reqBT)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status = %d, %d; want 200, 200", code1, code2)
	}
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("identical back-to-back requests ran %d evaluations, want 1", n)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response differs from the original")
	}
	if hdr1.Get("X-Cache") != "miss" || hdr2.Get("X-Cache") != "hit" {
		t.Errorf("X-Cache = %q, %q; want miss, hit", hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}
	m := scope.Metrics()
	if hits, _ := m.Counter("server.cache.result_hits"); hits != 1 {
		t.Errorf("server.cache.result_hits = %d, want 1", hits)
	}
	if misses, _ := m.Counter("server.cache.result_misses"); misses != 1 {
		t.Errorf("server.cache.result_misses = %d, want 1", misses)
	}
	if reqs, _ := m.Counter("server.requests"); reqs != 2 {
		t.Errorf("server.requests = %d, want 2", reqs)
	}

	// A defaulted base and the explicit equivalent share a cache entry.
	code3, _, _ := post(t, ts.URL+"/v1/project",
		`{"base":"hydra","target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`)
	if code3 != 200 {
		t.Fatalf("explicit-base request: status %d", code3)
	}
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("normalised request missed the cache: %d evaluations", n)
	}
	// The validate op caches separately from project.
	post(t, ts.URL+"/v1/validate", reqBT)
	if n := eval.calls.Load(); n != 2 {
		t.Errorf("validate after project ran %d evaluations, want 2", n)
	}
}

func TestSurrogateEndpointSharesProjectCache(t *testing.T) {
	eval := &stubEval{}
	_, ts := newTestServer(t, Config{Workers: 2}, eval)
	code, _, body := post(t, ts.URL+"/v1/surrogate", reqBT)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var sr struct {
		App     string          `json:"app"`
		Compute json.RawMessage `json:"compute"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("surrogate body: %v", err)
	}
	if sr.App != "BT-MZ.C" || len(sr.Compute) == 0 {
		t.Errorf("surrogate body incomplete: %s", body)
	}
	if bytes.Contains(body, []byte(`"comm"`)) {
		t.Error("surrogate response must not carry the comm section")
	}
	// Same op and key as /v1/project: no second evaluation.
	post(t, ts.URL+"/v1/project", reqBT)
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("project after surrogate ran %d evaluations, want 1", n)
	}
}

func TestSingleflightCollapsesConcurrentDuplicates(t *testing.T) {
	eval := &stubEval{gate: make(chan struct{})}
	_, ts := newTestServer(t, Config{Workers: 2}, eval)

	const n = 4
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/project", "application/json", strings.NewReader(reqBT))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Wait until the leader is inside the evaluation, then release it.
	deadline := time.Now().Add(5 * time.Second)
	for eval.calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(eval.gate)
	wg.Wait()

	if n := eval.calls.Load(); n != 1 {
		t.Errorf("concurrent duplicates ran %d evaluations, want 1", n)
	}
	for i := range codes {
		if codes[i] != 200 {
			t.Errorf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs from leader's", i)
		}
	}
}

// A result is evaluated once however its requests interleave: a caller that
// arrives just as the leader finishes must see the cached result, not a miss
// and an empty in-flight table. The stub returns at once, so each round's
// leader finishes while the other callers are still arriving.
func TestEvaluateElectsOneLeader(t *testing.T) {
	eval := &stubEval{}
	s, _ := newTestServer(t, Config{Workers: 2}, eval)

	const callers, rounds = 64, 200
	for round := 1; round <= rounds; round++ {
		req := swapp.Request{Base: "hydra", Target: "power6-575", Bench: "BT-MZ", Class: 'C', Ranks: round}
		key := digest(opProject, req)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, _, err := s.evaluate(context.Background(), opProject, key, req); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := eval.calls.Load(); n != int64(round) {
			t.Fatalf("round %d: %d evaluations so far, want one per key (%d)", round, n, round)
		}
	}
}

// TestFollowerSurvivesLeaderGivingUp: a leader that gives up on its own
// caller's behalf — the client hung up, its timeout_ms ran out — has said
// nothing about the request, so a caller that joined its evaluation and is
// still waiting must not inherit the 499 or the 504: it asks again, leads, and
// is answered with the bytes a lone request gets.
func TestFollowerSurvivesLeaderGivingUp(t *testing.T) {
	_, ctl := newTestServer(t, Config{Workers: 2}, &stubEval{})
	_, _, want := post(t, ctl.URL+"/v1/project", reqBT)

	// ask is post for goroutines other than the test's own: it reports a
	// failed request as status 0 instead of ending the test.
	ask := func(url, body string) (int, []byte) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	t.Run("leader client hangs up", func(t *testing.T) {
		eval := &stubEval{gate: make(chan struct{})}
		scope := obs.New("test")
		_, ts := newTestServer(t, Config{Workers: 2, Obs: scope}, eval)

		leaderCtx, hangUp := context.WithCancel(context.Background())
		defer hangUp()
		leaderGone := make(chan struct{})
		go func() {
			defer close(leaderGone)
			req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/project", strings.NewReader(reqBT))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		waitFor(t, func() bool { return eval.calls.Load() == 1 }) // the leader is evaluating

		type reply struct {
			code int
			body []byte
		}
		follower := make(chan reply, 1)
		go func() {
			code, body := ask(ts.URL+"/v1/project", reqBT)
			follower <- reply{code, body}
		}()
		waitFor(t, func() bool { return counter(scope, "server.requests") == 2 })
		// Joining a flight is observable nowhere; like
		// TestPanickingLeaderReleasesFollowers, give the handler time to. A
		// follower that had not joined would lead at once and pass untested.
		time.Sleep(50 * time.Millisecond)

		hangUp()
		<-leaderGone
		// The follower leads a second evaluation; only then is the gate
		// opened, so the leader cannot have finished instead of giving up.
		waitFor(t, func() bool { return eval.calls.Load() == 2 })
		close(eval.gate)
		if got := <-follower; got.code != 200 || !bytes.Equal(got.body, want) {
			t.Errorf("the follower got %d %s, want 200 and the control's bytes", got.code, got.body)
		}
		if n := eval.calls.Load(); n != 2 {
			t.Errorf("%d evaluations ran, want 2: the leader's and the follower's", n)
		}
	})

	t.Run("leader deadline runs out under a job", func(t *testing.T) {
		eval := &stubEval{gate: make(chan struct{})}
		_, ts := newTestServer(t, Config{Workers: 2}, eval)

		leader := make(chan int, 1)
		go func() {
			code, _ := ask(ts.URL+"/v1/project", strings.Replace(reqBT, "}", `,"timeout_ms":300}`, 1))
			leader <- code
		}()
		waitFor(t, func() bool { return eval.calls.Load() == 1 })
		st := submitJob(t, ts.URL, `{"request":`+reqBT+`}`)
		if code := <-leader; code != http.StatusGatewayTimeout {
			t.Fatalf("the leader's status = %d, want its own 504", code)
		}
		waitFor(t, func() bool { return eval.calls.Load() == 2 })
		close(eval.gate)
		if final := waitJobDone(t, ts.URL, st.ID); final.State != cluster.JobDone {
			t.Fatalf("the job that joined a leader with a short deadline = %s (%s), want done", final.State, final.Error)
		}
		if got := resultBytes(t, ts.URL, st.ID); !bytes.Equal(got, want) {
			t.Errorf("job result differs from the synchronous endpoint:\njob:  %s\nsync: %s", got, want)
		}
	})
}

func TestDeadlineExpiryReturnsPromptly(t *testing.T) {
	eval := &stubEval{gate: make(chan struct{})} // never released in time
	scope := obs.New("test")
	_, ts := newTestServer(t, Config{Workers: 1, Obs: scope}, eval)

	start := time.Now()
	code, _, body := post(t, ts.URL+"/v1/project",
		`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16,"timeout_ms":50}`)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", code, body)
	}
	if !bytes.Contains(body, []byte("deadline")) {
		t.Errorf("error body should name the deadline: %s", body)
	}
	if elapsed > 3*time.Second {
		t.Errorf("expired deadline took %v to surface", elapsed)
	}
	close(eval.gate)
	// The failed evaluation must not have poisoned the cache: the next
	// request re-evaluates and succeeds.
	code, _, _ = post(t, ts.URL+"/v1/project", reqBT)
	if code != 200 {
		t.Errorf("request after timeout: status %d", code)
	}
	if n := eval.calls.Load(); n != 2 {
		t.Errorf("evaluations = %d, want 2 (errors are not cached)", n)
	}
}

// TestHugeTimeoutIsClamped: a timeout_ms too large for time.Duration is
// clamped to the server maximum, not wrapped into an already-expired
// deadline. Each try gets a fresh server, so none is a result-cache hit, and
// an evaluation that honours its context, so an expired deadline cannot
// slip through admission's select by chance.
func TestHugeTimeoutIsClamped(t *testing.T) {
	eval := func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return stubResult(req), nil
	}
	for _, ms := range []string{"10000000000000", "4611686018427387904", "9223372036854775807"} {
		body := strings.Replace(reqBT, "}", `,"timeout_ms":`+ms+`}`, 1)
		for try := 0; try < 20; try++ {
			ts := httptest.NewServer(New(Config{Workers: 1, Eval: eval}).Handler())
			code, _, out := post(t, ts.URL+"/v1/project", body)
			ts.Close()
			if code != http.StatusOK {
				t.Fatalf("timeout_ms %s, try %d: status %d %s, want 200", ms, try, code, out)
			}
		}
	}
}

func TestQueueSaturationReturns503(t *testing.T) {
	eval := &stubEval{gate: make(chan struct{})}
	scope := obs.New("test")
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Obs: scope}, eval)

	// Distinct requests so the singleflight table cannot collapse them:
	// one running, then fill the admission bound (Workers+QueueDepth=2
	// concurrent admissions), then overflow.
	body := func(r int) string {
		return fmt.Sprintf(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":%d}`, r)
	}
	results := make(chan int, 8)
	launch := func(r int) {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/project", "application/json", strings.NewReader(body(r)))
			if err != nil {
				results <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// Occupy the worker, then fill the admission bound: with Workers=1 and
	// QueueDepth=1 the admission counter tolerates 2 concurrent admissions
	// (one transiently taking the free slot plus one true waiter), so two
	// parked requests saturate it while the first evaluates.
	launch(16)
	waitFor(t, func() bool { return eval.calls.Load() == 1 })
	launch(32)
	waitFor(t, func() bool { return s.queued.Load() >= 1 })
	launch(48)
	waitFor(t, func() bool { return s.queued.Load() >= 2 })

	// The next arrival must be rejected immediately — not parked.
	code, hdr, rbody := post(t, ts.URL+"/v1/project", body(64))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated queue: status %d, want 503 (body %s)", code, rbody)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	if rej, _ := scope.Metrics().Counter("server.rejected"); rej < 1 {
		t.Errorf("server.rejected = %d, want >= 1", rej)
	}

	// In-flight work is not wedged: release the gate and all three
	// admitted requests complete with 200.
	close(eval.gate)
	for i := 0; i < 3; i++ {
		select {
		case code := <-results:
			if code != 200 {
				t.Errorf("admitted request finished with %d, want 200", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted request never completed after release")
		}
	}
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBadRequests(t *testing.T) {
	eval := &stubEval{}
	_, ts := newTestServer(t, Config{Workers: 1}, eval)
	cases := []struct {
		name, body string
	}{
		{"unknown target", `{"target":"cray-1","bench":"BT-MZ","class":"C","ranks":16}`},
		{"zero ranks", `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":0}`},
		{"one rank", `{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":1}`},
		{"bad class", `{"target":"power6-575","bench":"BT-MZ","class":"CD","ranks":16}`},
		{"unknown bench", `{"target":"power6-575","bench":"CG-MZ","class":"C","ranks":16}`},
		{"ranks beyond limit", `{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":512}`},
		{"ranks beyond the target's cores", `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":256}`},
		{"base equals target", `{"base":"power6-575","target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`},
		{"unknown field", `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16,"bogus":1}`},
		{"malformed json", `{`},
	}
	for _, tc := range cases {
		code, _, body := post(t, ts.URL+"/v1/project", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, code, body)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
	if n := eval.calls.Load(); n != 0 {
		t.Errorf("bad requests reached the evaluator %d times", n)
	}
	if code, _, _ := post(t, ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Error("healthz should tolerate POST via mux default — expected 200")
	}
	resp, err := http.Get(ts.URL + "/v1/project")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/project: status %d, want 405", resp.StatusCode)
	}
}

// TestOversizeBodiesRefused: every decoder the network can reach stops
// reading at its bound and answers 413 with one JSON error line — before
// decoding, so a batch of a million empty items is refused for its size, not
// counted and then refused for its length — while a body padded up to the
// bound is still served.
func TestOversizeBodiesRefused(t *testing.T) {
	eval := &stubEval{}
	_, ts := newTestServer(t, Config{Workers: 1}, eval)
	job := `{"request":` + reqBT + `}`
	for _, tc := range []struct {
		path, body string
		limit      int
		okStatus   int
	}{
		{"/v1/project", reqBT, maxRequestBytes, http.StatusOK},
		{"/v1/validate", reqBT, maxRequestBytes, http.StatusOK},
		{"/v1/surrogate", reqBT, maxRequestBytes, http.StatusOK},
		{"/v1/jobs", job, maxRequestBytes, http.StatusAccepted},
		{"/v1/batch", batchBody(t, reqBT), maxBatchBytes, http.StatusOK},
	} {
		// Leading whitespace is legal JSON: padded to the bound the value is
		// read whole, one byte more and its end lies beyond the bound.
		fits := strings.Repeat(" ", tc.limit-len(tc.body)) + tc.body
		if code, _, out := post(t, ts.URL+tc.path, fits); code != tc.okStatus {
			t.Errorf("%s: a %d-byte body got %d %.120s, want %d", tc.path, len(fits), code, out, tc.okStatus)
		}
		code, _, out := post(t, ts.URL+tc.path, " "+fits)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: a %d-byte body got %d %.120s, want 413", tc.path, len(fits)+1, code, out)
		}
		var e apiError
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" || bytes.Count(out, []byte("\n")) != 1 {
			t.Errorf("%s: 413 body is not one JSON error line: %q", tc.path, out)
		}
	}
	flood := `{"requests":[{}` + strings.Repeat(",{}", maxBatchBytes/3) + `]}`
	if code, _, out := post(t, ts.URL+"/v1/batch", flood); code != http.StatusRequestEntityTooLarge {
		t.Errorf("a batch of %d empty items got %d %.120s, want 413", maxBatchBytes/3+1, code, out)
	}
	if n := eval.calls.Load(); n != 2 {
		t.Errorf("the evaluator ran %d times, want 2: the five bodies that fit are one projection and one validation", n)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	eval := &stubEval{}
	s, ts := newTestServer(t, Config{Workers: 1}, eval)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/healthz"); c != 200 {
		t.Errorf("/healthz = %d", c)
	}
	if c := get("/readyz"); c != 200 {
		t.Errorf("/readyz = %d", c)
	}
	s.SetDraining(true)
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", c)
	}
	if c := get("/healthz"); c != 200 {
		t.Errorf("/healthz while draining = %d, want 200", c)
	}
}

func TestDebugSurfaceMounted(t *testing.T) {
	eval := &stubEval{}
	_, ts := newTestServer(t, Config{Workers: 1, Obs: obs.New("swappd")}, eval)
	post(t, ts.URL+"/v1/project", reqBT)
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics.json = %d", resp.StatusCode)
	}
	var m obs.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Counter("server.requests"); !ok || v < 1 {
		t.Errorf("debug surface does not see server.requests: %+v", m.Counters)
	}
	// The server opens no span per request, so a live trace would only
	// ever show an empty root: it is not served.
	tr, err := http.Get(ts.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Errorf("/trace.json = %d, want 404", tr.StatusCode)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	eval := &stubEval{}
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 2}, eval)
	body := func(r int) string {
		return fmt.Sprintf(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":%d}`, r)
	}
	post(t, ts.URL+"/v1/project", body(16)) // cache: 16
	post(t, ts.URL+"/v1/project", body(32)) // cache: 32,16
	post(t, ts.URL+"/v1/project", body(16)) // hit; cache: 16,32
	post(t, ts.URL+"/v1/project", body(64)) // evicts 32; cache: 64,16
	if got := s.cache.Len(); got != 2 {
		t.Fatalf("cache len = %d, want 2", got)
	}
	post(t, ts.URL+"/v1/project", body(16)) // still hit
	if n := eval.calls.Load(); n != 3 {
		t.Errorf("evaluations = %d, want 3 (16 stayed resident)", n)
	}
	post(t, ts.URL+"/v1/project", body(32)) // evicted: re-evaluates
	if n := eval.calls.Load(); n != 4 {
		t.Errorf("evaluations = %d, want 4 (32 was evicted)", n)
	}
}
