package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzBatchRequest: /v1/batch is the widest decoder the network can reach.
// Arbitrary bytes posted to it never panic the handler (a recovered panic
// would answer 500), are either refused whole with a 400 — a 413 past
// maxBatchBytes — or answered 200, always with a JSON document ending in a
// newline, and a 200 accounts for every submitted item, in order — whatever
// each item's own status.
func FuzzBatchRequest(f *testing.F) {
	var hot []string
	for i := 0; i < 64; i++ {
		hot = append(hot, ringBatch[i*5%len(ringBatch)])
	}
	f.Add([]byte(batchBody(f, hot...)))
	f.Add([]byte(batchBody(f, `{"op":"teleport",`+reqBT[1:], reqBT)))
	f.Add([]byte(`{"requests":[` + reqBT + `],"mode":"fast"}`))
	f.Add([]byte(`{"requests":[{}` + strings.Repeat(",{}", maxBatchItems) + `]}`)) // 257: small, for the minimiser
	f.Add([]byte(`{"requests":[` + reqBT + `,{"target":"bgp","ben`))
	f.Add([]byte(`{"requests":[{"op":"validate","target":"bgp","bench":"SP-MZ","class":"D","ranks":-3,"timeout_ms":1},{},null]} trailing`))
	f.Add([]byte(`{"requests":[` + reqBT + strings.Repeat(" ", maxBatchBytes) + `]}`)) // ends past the bound

	h := New(Config{Workers: 2, Eval: (&stubEval{}).fn}).Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data)))
		out := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		case http.StatusRequestEntityTooLarge:
			if len(data) <= maxBatchBytes {
				t.Fatalf("413 for %d bytes, the bound is %d", len(data), maxBatchBytes)
			}
		default:
			t.Fatalf("status = %d: %s", rec.Code, out)
		}
		if !json.Valid(out) || !bytes.HasSuffix(out, []byte("\n")) {
			t.Fatalf("status %d with a body that is not one JSON line: %q", rec.Code, out)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// The handler reads one JSON value and stops, so count the same way.
		var sent struct{ Requests []json.RawMessage }
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&sent); err != nil {
			t.Fatalf("200 for an envelope that does not decode: %v", err)
		}
		var resp batchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("decoding the reply: %v\n%s", err, out)
		}
		if len(resp.Results) != len(sent.Requests) {
			t.Fatalf("%d results for %d submitted items", len(resp.Results), len(sent.Requests))
		}
		for i, e := range resp.Results {
			if e.Index != i {
				t.Fatalf("results[%d].index = %d", i, e.Index)
			}
		}
	})
}

// FuzzEvalRequest: the three single endpoints decode the same APIRequest.
// Arbitrary bytes posted to any of them never panic the handler, are
// answered 200 or 400 — 413 past maxRequestBytes — with one JSON line, and a
// 200 is a pure function of the bytes sent: the same bytes again get the
// same document, this time from the result cache.
func FuzzEvalRequest(f *testing.F) {
	f.Add([]byte(reqBT))
	f.Add([]byte(`{"base":"bgp","target":"hydra","bench":"SP-MZ","class":"D","ranks":64,"timeout_ms":250}`))
	f.Add([]byte(reqBT[:len(reqBT)-1] + `,"bogus":1}`))                                              // unknown field
	f.Add([]byte(reqBT + ` trailing`))                                                               // the decoder stops at the value's end
	f.Add([]byte(`{"target":"power6-575","bench":"BT-MZ","class":"Ç","ranks":16}`))                  // multi-byte class
	f.Add([]byte(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":9223372036854775807}`)) // huge ranks
	f.Add([]byte(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":1e99}`))
	f.Add([]byte(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16,"timeout_ms":9223372036854775807}`))
	f.Add([]byte(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16,"timeout_ms":-1}`))
	f.Add([]byte(`{"target":"power6-575","ben`))
	f.Add([]byte(`null`))
	f.Add([]byte(reqBT[:len(reqBT)-1] + strings.Repeat(" ", maxRequestBytes) + `}`)) // ends past the bound

	h := New(Config{Workers: 2, Eval: (&stubEval{}).fn}).Handler()
	serve := func(path string, data []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		return rec
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/v1/project", "/v1/validate"} {
			rec := serve(path, data)
			out := rec.Body.Bytes()
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest:
			case http.StatusRequestEntityTooLarge:
				if len(data) <= maxRequestBytes {
					t.Fatalf("%s: 413 for %d bytes, the bound is %d", path, len(data), maxRequestBytes)
				}
			default:
				t.Fatalf("%s: status = %d: %s", path, rec.Code, out)
			}
			if !json.Valid(out) || !bytes.HasSuffix(out, []byte("\n")) || bytes.Count(out, []byte("\n")) != 1 {
				t.Fatalf("%s: status %d with a body that is not one JSON line: %q", path, rec.Code, out)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			again := serve(path, data)
			if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), out) {
				t.Fatalf("%s: the same bytes again got %d %q, first %q", path, again.Code, again.Body.Bytes(), out)
			}
			if xc := again.Header().Get("X-Cache"); xc != "hit" {
				t.Fatalf("%s: the second identical request was X-Cache %q, want hit", path, xc)
			}
		}
	})
}
