package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// newHTTPServer exposes an already-built Server over an httptest listener.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// httpGet returns the status of a GET, draining the body.
func httpGet(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// groupedEval is an EvalFunc that routes its characterisation through the
// layered store's grouped-fill hook, the way the real pipeline shares
// per-machine characterisations: every request for one (base, target)
// group resolves the same store key, so the per-layer hit/miss counters
// expose exactly how many times the expensive stage actually ran.
type groupedEval struct {
	calls atomic.Int64
	fills atomic.Int64
}

func (e *groupedEval) fn(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
	e.calls.Add(1)
	if req.Store != nil {
		key := cluster.GroupKey(req.Base, req.Target)
		if _, err := req.Store.CharacterisationFill(ctx, key, func() (any, error) {
			e.fills.Add(1)
			return "characterisation:" + key, nil
		}); err != nil {
			return nil, err
		}
	}
	return stubResult(req), nil
}

// batchBody builds a /v1/batch payload from items.
func batchBody(t testing.TB, items ...string) string {
	t.Helper()
	return fmt.Sprintf(`{"requests":[%s]}`, strings.Join(items, ","))
}

// decodeBatch parses a /v1/batch response body.
func decodeBatch(t testing.TB, body []byte) batchResponse {
	t.Helper()
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, body)
	}
	return resp
}

// TestBatchAmortisesCharacterisation is the tentpole's proof: K requests
// sharing a (base, target) group, submitted as one batch, run the
// characterisation stage exactly once — one miss on the store's
// characterisation layer, K-1 hits — while each response stays
// byte-identical to the one its own endpoint serves for the same request.
func TestBatchAmortisesCharacterisation(t *testing.T) {
	eval := &groupedEval{}
	scope := obs.New("test")
	s := New(Config{Workers: 4, Obs: scope, Eval: eval.fn})
	ts := newHTTPServer(t, s)

	// An individually-served control server with an identical stub, for
	// the byte-identity comparison.
	ctlEval := &groupedEval{}
	ctl := New(Config{Workers: 4, Eval: ctlEval.fn})
	ctlTS := newHTTPServer(t, ctl)

	// Group A: three benches on one (base, target). Group B: one more
	// target. Plus one explicit validate on group A.
	items := []struct {
		op   string
		body string
	}{
		{"project", `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`},
		{"project", `{"target":"power6-575","bench":"SP-MZ","class":"C","ranks":16}`},
		{"project", `{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":16}`},
		{"validate", `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":32}`},
		{"surrogate", `{"target":"bgp","bench":"BT-MZ","class":"C","ranks":16}`},
	}
	reqs := make([]string, len(items))
	for i, it := range items {
		reqs[i] = fmt.Sprintf(`{"op":%q,%s`, it.op, it.body[1:])
	}
	code, _, body := post(t, ts.URL+"/v1/batch", batchBody(t, reqs...))
	if code != 200 {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	resp := decodeBatch(t, body)
	if len(resp.Results) != len(items) {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), len(items))
	}
	if resp.Groups != 2 {
		t.Errorf("batch decomposed into %d groups, want 2", resp.Groups)
	}

	// Amortisation: one characterisation fill per group, ever.
	if n := eval.fills.Load(); n != 2 {
		t.Errorf("characterisation ran %d times for 2 groups (amortisation broken)", n)
	}
	m := scope.Metrics()
	if misses, _ := m.Counter("server.cache.characterisation_misses"); misses != 2 {
		t.Errorf("characterisation layer misses = %d, want exactly 2 (one per group)", misses)
	}
	if hits, _ := m.Counter("server.cache.characterisation_hits"); hits != int64(len(items)-2) {
		t.Errorf("characterisation layer hits = %d, want %d", hits, len(items)-2)
	}

	// Byte-identity: each entry matches its own endpoint's document on the
	// control server (modulo the endpoint's trailing newline, which JSON
	// embedding cannot carry).
	for i, it := range items {
		e := resp.Results[i]
		if e.Index != i || e.Status != 200 {
			t.Fatalf("entry %d = index %d status %d (%s)", i, e.Index, e.Status, e.Error)
		}
		_, _, individual := post(t, ctlTS.URL+"/v1/"+it.op, it.body)
		if want := bytes.TrimSuffix(individual, []byte("\n")); !bytes.Equal(e.Body, want) {
			t.Errorf("entry %d differs from its endpoint:\nbatch:      %s\nindividual: %s", i, e.Body, want)
		}
	}
}

// TestBatchSharesResultCacheWithEndpoints proves the batch path addresses
// the same result cache as the single endpoints: a batch after an
// individual request is all hits, and vice versa.
func TestBatchSharesResultCacheWithEndpoints(t *testing.T) {
	eval := &groupedEval{}
	s := New(Config{Workers: 2, Eval: eval.fn})
	ts := newHTTPServer(t, s)

	_, hdr, individual := post(t, ts.URL+"/v1/project", reqBT)
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first individual request X-Cache = %q", hdr.Get("X-Cache"))
	}
	code, _, body := post(t, ts.URL+"/v1/batch", batchBody(t, reqBT))
	if code != 200 {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	resp := decodeBatch(t, body)
	if n := eval.calls.Load(); n != 1 {
		t.Errorf("batch after identical individual request ran %d evaluations, want 1", n)
	}
	if !bytes.Equal(resp.Results[0].Body, bytes.TrimSuffix(individual, []byte("\n"))) {
		t.Error("cached batch entry differs from the individual response")
	}
}

// TestBatchItemErrorsAreEntries proves item failures stay per-entry: a
// malformed item reports its own 400 without failing the batch or its
// healthy neighbours.
func TestBatchItemErrorsAreEntries(t *testing.T) {
	eval := &groupedEval{}
	s := New(Config{Workers: 2, Eval: eval.fn})
	ts := newHTTPServer(t, s)

	code, _, body := post(t, ts.URL+"/v1/batch", batchBody(t,
		reqBT,
		`{"target":"power6-575","bench":"BT-MZ","class":"CD","ranks":16}`, // bad class
		`{"op":"teleport",`+reqBT[1:],                                     // unknown op
	))
	if code != 200 {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	resp := decodeBatch(t, body)
	if resp.Results[0].Status != 200 {
		t.Errorf("healthy entry status = %d (%s)", resp.Results[0].Status, resp.Results[0].Error)
	}
	for _, i := range []int{1, 2} {
		if resp.Results[i].Status != 400 || resp.Results[i].Error == "" {
			t.Errorf("entry %d = status %d error %q, want a 400 with a message", i, resp.Results[i].Status, resp.Results[i].Error)
		}
	}
}

// TestBatchEnvelopeValidation proves only malformed envelopes fail the
// whole request.
func TestBatchEnvelopeValidation(t *testing.T) {
	eval := &groupedEval{}
	s := New(Config{Workers: 2, Eval: eval.fn})
	ts := newHTTPServer(t, s)

	for name, body := range map[string]string{
		"empty":         `{"requests":[]}`,
		"unknown field": `{"requests":[` + reqBT + `],"mode":"fast"}`,
		"not json":      `{"requests":`,
	} {
		if code, _, _ := post(t, ts.URL+"/v1/batch", body); code != 400 {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	big := make([]string, maxBatchItems+1)
	for i := range big {
		big[i] = reqBT
	}
	if code, _, _ := post(t, ts.URL+"/v1/batch", batchBody(t, big...)); code != 400 {
		t.Errorf("oversized batch accepted")
	}
	resp, err := httpGet(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	if resp != 405 {
		t.Errorf("GET /v1/batch = %d, want 405", resp)
	}
}
