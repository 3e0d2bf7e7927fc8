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
// would answer 500), are either refused whole with a 400 or answered 200,
// always with a JSON document ending in a newline, and a 200 accounts for
// every submitted item, in order — whatever each item's own status.
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

	h := New(Config{Workers: 2, Eval: (&stubEval{}).fn}).Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data)))
		out := rec.Body.Bytes()
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
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
