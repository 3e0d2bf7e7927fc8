package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/core"
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

// TestBatchAmortisesCharacterisation runs the real engine: K requests that
// share a (base, target) group, submitted as one batch, characterise their
// machines once between them — the store's characterisation layer misses
// exactly as often as it does for one such request served alone — while
// each entry stays byte-identical to the document its own endpoint serves.
func TestBatchAmortisesCharacterisation(t *testing.T) {
	scope := obs.New("test")
	ts := newHTTPServer(t, New(Config{Workers: 2, Obs: scope, DefaultTimeout: 5 * time.Minute}))

	// The control serves one of the requests alone, then the rest.
	ctlScope := obs.New("test")
	ctlTS := newHTTPServer(t, New(Config{Workers: 2, Obs: ctlScope, DefaultTimeout: 5 * time.Minute}))

	// LU-MZ.C at 16 ranks is the cheapest full pipeline run; every item
	// characterises hydra and power6-575 at the same core counts.
	const lu = `{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":16}`
	items := []struct{ op, body string }{
		{"project", lu},
		{"validate", lu},
		{"project", lu}, // a duplicate: it joins the first item's evaluation
		{"project", `{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":8}`},
	}
	_, _, first := post(t, ctlTS.URL+"/v1/project", lu)
	alone := counter(ctlScope, "server.cache.characterisation_misses")
	if alone == 0 {
		t.Fatalf("control request characterised nothing: %s", first)
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
	if resp.Groups != 1 {
		t.Errorf("batch decomposed into %d groups, want 1", resp.Groups)
	}
	if misses := counter(scope, "server.cache.characterisation_misses"); misses != alone {
		t.Errorf("batch of %d missed the characterisation layer %d times, one request alone %d (amortisation broken)", len(items), misses, alone)
	}
	if hits := counter(scope, "server.cache.characterisation_hits"); hits == 0 {
		t.Error("no item of the batch was served characterisation another item built")
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
// individual request hits on that request and misses on its neighbours,
// counted exactly as the endpoints count them.
func TestBatchSharesResultCacheWithEndpoints(t *testing.T) {
	eval := &stubEval{}
	scope := obs.New("test")
	s := New(Config{Workers: 2, Obs: scope, Eval: eval.fn})
	ts := newHTTPServer(t, s)

	_, hdr, individual := post(t, ts.URL+"/v1/project", reqBT)
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first individual request X-Cache = %q", hdr.Get("X-Cache"))
	}
	other := `{"target":"bgp","bench":"SP-MZ","class":"C","ranks":16}`
	code, _, body := post(t, ts.URL+"/v1/batch", batchBody(t, other, reqBT, `{"op":"project",`+reqBT[1:]))
	if code != 200 {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	resp := decodeBatch(t, body)
	if n := eval.calls.Load(); n != 2 {
		t.Errorf("individual request plus a batch of it, it again under its explicit op and one new request ran %d evaluations, want 2", n)
	}
	if !bytes.Equal(resp.Results[1].Body, bytes.TrimSuffix(individual, []byte("\n"))) {
		t.Error("cached batch entry differs from the individual response")
	}
	if hits, misses := counter(scope, "server.cache.result_hits"), counter(scope, "server.cache.result_misses"); hits != 2 || misses != 2 {
		t.Errorf("result cache counted %d hits and %d misses, want 2 and 2", hits, misses)
	}
}

// TestBatchItemErrorsAreEntries proves item failures stay per-entry: a
// malformed item reports its own 400 without failing the batch or its
// healthy neighbours.
func TestBatchItemErrorsAreEntries(t *testing.T) {
	eval := &stubEval{}
	s := New(Config{Workers: 2, Eval: eval.fn})
	ts := newHTTPServer(t, s)

	code, _, body := post(t, ts.URL+"/v1/batch", batchBody(t,
		reqBT,
		`{"target":"power6-575","bench":"BT-MZ","class":"CD","ranks":16}`, // bad class
		`{"op":"teleport",`+reqBT[1:],                                     // unknown op
		`{"op":"surrogate",`+reqBT[1:],                                    // the retired /v1/surrogate's op
	))
	if code != 200 {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	resp := decodeBatch(t, body)
	if resp.Results[0].Status != 200 {
		t.Errorf("healthy entry status = %d (%s)", resp.Results[0].Status, resp.Results[0].Error)
	}
	for _, i := range []int{1, 2, 3} {
		if resp.Results[i].Status != 400 || resp.Results[i].Error == "" {
			t.Errorf("entry %d = status %d error %q, want a 400 with a message", i, resp.Results[i].Status, resp.Results[i].Error)
		}
	}
	if got := resp.Results[3].Error; got != `unknown op "surrogate"` {
		t.Errorf("a surrogate item's error = %q, want unknown op", got)
	}
}

// TestBatchEnvelopeValidation proves only malformed envelopes fail the
// whole request.
func TestBatchEnvelopeValidation(t *testing.T) {
	eval := &stubEval{}
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

// hostileResult is stubResult on a request whose strings need every escape
// encoding/json applies — quotes, backslashes, HTML characters, U+2028 — plus
// a validation, so each renderer's output carries the escaping the batch
// assembler splices rather than redoes.
func hostileResult() *swapp.Result {
	res := stubResult(swapp.Request{Target: "p<6>&\u2028\"575\\", Bench: "BT-MZ", Class: 'C', Ranks: 16})
	res.Validation = &core.Validation{Proj: res.Projection, MeasuredTotal: 1.5, ErrCombined: -3.25}
	return res
}

// renderedBody is one renderer's document as a batch entry carries it.
func renderedBody(t testing.TB, render func(*swapp.Result) ([]byte, error)) json.RawMessage {
	t.Helper()
	out, err := render(hostileResult())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(out, []byte("\n")) {
		t.Fatalf("renderer output does not end in a newline: %q", out)
	}
	return bytes.TrimSuffix(out, []byte("\n"))
}

// TestRenderedBytesAreCanonical pins the property the splice relies on:
// what this process's renderers emit is a fixed point of the compaction and
// escaping encoding/json applies to an embedded RawMessage, so copying it
// verbatim and re-encoding it give the same bytes.
func TestRenderedBytesAreCanonical(t *testing.T) {
	for op, spec := range endpoints {
		body := renderedBody(t, spec.render)
		again, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !bytes.Equal(again, body) {
			t.Errorf("%s: rendered bytes are not a fixed point of json.Marshal:\nrendered:  %s\nre-encoded: %s", op, body, again)
		}
	}
}

// TestBatchResponseMatchesEncodingJSON holds the assembler to encoding/json
// as the oracle: whatever the entries, appendBatchResponse writes the bytes
// json.Encoder writes for the same batchResponse.
func TestBatchResponseMatchesEncodingJSON(t *testing.T) {
	project := renderedBody(t, renderProject)
	validate := renderedBody(t, renderValidate)
	many := make([]batchEntry, maxBatchItems)
	for i := range many {
		many[i] = batchEntry{Index: i, Status: 200, Body: project, rendered: i%2 == 0}
	}
	for name, entries := range map[string][]batchEntry{
		"none": {},
		"spliced": {
			{Index: 0, Status: 200, Body: project, rendered: true},
			{Index: 1, Status: 200, Body: validate, rendered: true},
			{Index: 2, Status: 200, Body: project, rendered: true},
		},
		"untrusted": {
			{Index: 0, Status: 200, Body: json.RawMessage(" {\t\"a\" : [ 1 , 2 ] ,\n \"b\" : \"<x>&\u2028\u2029\" } \n")},
			{Index: 1, Status: 200, Body: project},
			{Index: 2, Status: 200, Body: json.RawMessage(`null`)},
			{Index: 3, Status: 200, Body: json.RawMessage(` 42 `)},
		},
		"errors": {
			{Index: 10, Status: 400, Error: `unknown op "tele\port"`},
			{Index: 11, Status: 500, Error: "control \x00\x1f\n\t bytes, <html> & \u2028, invalid \xff\xfe UTF-8"},
			{Index: 123, Status: 504},
			{Index: 255, Status: 502, Body: json.RawMessage(`{"partial" : true}`), Error: "body and error"},
			{Index: 256, Status: 200, Body: json.RawMessage{}, Error: ""},
		},
		"full": many,
	} {
		for _, groups := range []int{0, 3, 12} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(batchResponse{Results: entries, Groups: groups}); err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			got := appendBatchResponse(nil, entries, groups)
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s, %d groups: assembler differs from encoding/json:\ngot:  %s\nwant: %s", name, groups, got, want.Bytes())
			}
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and drops
// the body, so a measurement through Handler() counts the handler alone.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// newHitBatch primes a stub-backed server with a 64-item /v1/batch — nine
// keys over three groups and all three ops, repeated — and returns a
// function serving that batch again, every item now a result-cache hit,
// through Handler() into a discardWriter.
func newHitBatch(tb testing.TB) (serve func()) {
	tb.Helper()
	eval := &stubEval{}
	h := New(Config{Workers: 4, Eval: eval.fn}).Handler()
	var keys []string
	for _, target := range []string{"power6-575", "bgp", "westmere-x5670"} {
		for i, bench := range []string{"BT-MZ", "SP-MZ", "LU-MZ"} {
			keys = append(keys, fmt.Sprintf(`{"op":%q,"target":%q,"bench":%q,"class":"C","ranks":16}`,
				[]string{"project", "validate", "project"}[i], target, bench))
		}
	}
	items := make([]string, 64)
	for i := range items {
		items[i] = keys[i*7%len(keys)]
	}
	body := []byte(batchBody(tb, items...))
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	rd := bytes.NewReader(nil)
	serve = func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		w := discardWriter{hdr: http.Header{}}
		h.ServeHTTP(&w, req)
		if w.status != 0 && w.status != 200 {
			tb.Fatalf("batch status = %d", w.status)
		}
	}
	serve()
	primed := eval.calls.Load()
	serve()
	if n := eval.calls.Load(); n != primed {
		tb.Fatalf("primed batch still ran %d evaluations", n-primed)
	}
	return serve
}

// TestBatchHitAllocs pins what an all-hit batch allocates, handler-side
// (375 when written). What is left per item is the request itself — its
// strings out of encoding/json, its group key, the engine's normalisation;
// lookup, rendering and assembly add a handful per batch. It was 955 when
// every entry was re-compacted through json.Encoder and every hit took a
// goroutine, a timer and a formatted group key.
func TestBatchHitAllocs(t *testing.T) {
	serve := newHitBatch(t)
	if allocs := testing.AllocsPerRun(50, serve); allocs > 480 {
		t.Errorf("an all-hit 64-item batch allocates %.0f times, want <= 480", allocs)
	}
}

// BenchmarkBatchHit is the hot-batch number in isolation: one primed
// 64-item all-hit /v1/batch through the handler (TestBatchHitAllocs'
// fixture).
func BenchmarkBatchHit(b *testing.B) {
	serve := newHitBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
