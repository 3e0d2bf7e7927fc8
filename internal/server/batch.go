package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	swapp "repro"
	"repro/internal/cluster"
)

// maxBatchItems bounds one /v1/batch submission. The batch endpoint is an
// amortisation device, not a bulk loader: a bigger sweep should be split so
// each piece fits the admission machinery.
const maxBatchItems = 256

// endpointSpec describes one evaluation endpoint for dispatch by name —
// the batch and jobs APIs select op, cache slot, and renderer from it.
type endpointSpec struct {
	op       string
	endpoint string
	ep       int
	render   func(*swapp.Result) ([]byte, error)
}

// endpoints maps a batch/job "op" name to its endpoint. "project" and
// "surrogate" share an evaluation op (and thus a result-cache entry) but
// render differently.
var endpoints = map[string]endpointSpec{
	"project":   {opProject, "/v1/project", epProject, renderProject},
	"validate":  {opValidate, "/v1/validate", epValidate, renderValidate},
	"surrogate": {opProject, "/v1/surrogate", epSurrogate, renderSurrogate},
}

// batchItem is one request inside a batch: an operation name plus the
// usual single-endpoint body.
type batchItem struct {
	// Op selects the endpoint: "project" (default), "validate", or
	// "surrogate".
	Op string `json:"op,omitempty"`
	APIRequest
}

// batchRequest is the POST /v1/batch body.
type batchRequest struct {
	Requests []batchItem `json:"requests"`
}

// batchEntry is one item's outcome, positionally matched to the submission
// by Index. Body carries the same JSON document the item's own endpoint
// would have served (modulo the endpoint's trailing newline, which JSON
// embedding cannot represent).
type batchEntry struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`

	// rendered marks a Body this process's own renderers produced (the
	// result cache's memoised bytes). It never crosses the wire: an entry
	// decoded from a peer's reply has it false.
	rendered bool
}

// batchResponse is the /v1/batch reply. Groups reports how many distinct
// (base, target) characterisation groups the batch decomposed into — the
// amortisation denominator.
type batchResponse struct {
	Results []batchEntry `json:"results"`
	Groups  int          `json:"groups"`
}

// batchWork is one validated item awaiting its answer.
type batchWork struct {
	idx  int
	spec endpointSpec
	body APIRequest
	req  swapp.Request
}

// handleBatch serves POST /v1/batch: decode every item, group them by
// normalised (base, target) key, and answer group by group in the order
// every delivery shares — members held here inline, the rest forwarded
// together to the group's owning replica in peer-aware mode, and whatever
// the owner did not answer computed locally, its members sharing one
// characterisation fill through the layered store. Item failures are
// per-entry statuses; the batch itself only fails on malformed envelopes.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server.requests", 1)
	s.obs.Count("server.requests./v1/batch", 1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("/v1/batch requires POST"))
		return
	}
	var breq batchRequest
	if decodeBody(w, r, maxBatchBytes, "batch", &breq) != 0 {
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no requests"))
		return
	}
	if len(breq.Requests) > maxBatchItems {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch has %d requests, limit is %d", len(breq.Requests), maxBatchItems))
		return
	}

	entries := make([]batchEntry, len(breq.Requests))
	groups := map[string][]batchWork{}
	for i, item := range breq.Requests {
		op := item.Op
		if op == "" {
			op = "project"
		}
		spec, ok := endpoints[op]
		if !ok {
			entries[i] = batchEntry{Index: i, Status: http.StatusBadRequest, Error: fmt.Sprintf("unknown op %q", item.Op)}
			continue
		}
		req, err := evalRequest(item.APIRequest)
		if err != nil {
			entries[i] = batchEntry{Index: i, Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		gkey := cluster.GroupKey(req.Base, req.Target)
		groups[gkey] = append(groups[gkey], batchWork{idx: i, spec: spec, body: item.APIRequest, req: req})
	}

	// A member this replica already holds is answered inline — a cached
	// batch item costs what a cached hit costs — and only the members still
	// open go to the owner or, failing that, to goroutines of their own:
	// concurrent members of one group collapse onto a single
	// characterisation fill (store singleflight), which is the point of
	// batching. The batch-level semaphore keeps one batch from flooding the
	// admission queue and rejecting itself. One WaitGroup joins the groups
	// and the misses: a group adds its misses before its own Done, so the
	// count cannot touch zero early.
	forwarded := r.Header.Get(forwardedHeader) != ""
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for gkey, members := range groups {
		wg.Add(1)
		go func(gkey string, members []batchWork) {
			defer wg.Done()
			open := members[:0]
			for _, wk := range members {
				if doc, ok := s.held(digest(wk.spec.op, wk.req), wk.spec); ok {
					entries[wk.idx] = answeredEntry(doc)
				} else {
					open = append(open, wk)
				}
			}
			if len(open) == 0 || (s.peers != nil && !forwarded && s.forwardBatchGroup(r, gkey, open, entries)) {
				return
			}
			wg.Add(len(open))
			for _, wk := range open {
				go func(wk batchWork) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					entries[wk.idx] = s.computeBatchItem(r.Context(), wk)
				}(wk)
			}
		}(gkey, members)
	}
	wg.Wait()

	for i := range entries {
		entries[i].Index = i
	}
	w.Header().Set("Content-Type", "application/json")
	buf := batchBufPool.Get().(*[]byte)
	*buf = appendBatchResponse((*buf)[:0], entries, len(groups))
	_, _ = w.Write(*buf)
	batchBufPool.Put(buf)
}

// answeredEntry wraps a member's document as its entry. The endpoints
// terminate their documents with '\n'; embedded JSON cannot carry it, so
// entries hold the document body alone. What this replica holds or computes
// it rendered itself (see appendBatchResponse).
func answeredEntry(doc []byte) batchEntry {
	return batchEntry{Status: http.StatusOK, Body: bytes.TrimSuffix(doc, []byte("\n")), rendered: true}
}

// computeBatchItem is an open member's miss arm: compute under the item's
// own deadline, with its endpoint's error statuses.
func (s *Server) computeBatchItem(parent context.Context, wk batchWork) batchEntry {
	ctx, cancel := context.WithTimeout(parent, s.timeoutFor(wk.body))
	defer cancel()
	doc, _, err := s.compute(ctx, digest(wk.spec.op, wk.req), wk.spec, wk.req)
	if err != nil {
		return batchEntry{Status: s.errorStatus(err), Error: err.Error()}
	}
	return answeredEntry(doc)
}

// batchBufPool recycles /v1/batch response buffers (the sync.Pool idiom of
// internal/report): a sweep's responses run to hundreds of kilobytes, and a
// fresh slice per response would cost more memory than the encoder it
// replaces.
var batchBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendBatchResponse appends the /v1/batch reply — byte for byte what
// json.Encoder writes for batchResponse{entries, groups}, trailing newline
// included — to buf. entries must be non-nil.
//
// Who is spliced and who is compacted is the trust boundary. A rendered
// body is json.Encoder output of this process: compact, HTML-escaped, and
// so a fixed point of the compaction the encoder would apply to it again
// (TestRenderedBytesAreCanonical) — it is copied verbatim. Every other
// body crossed a wire (a peer's reply) and goes through json.Marshal, which
// validates, compacts and escapes it; one that fails becomes that entry's
// 502, never a blank response.
func appendBatchResponse(buf []byte, entries []batchEntry, groups int) []byte {
	buf = append(buf, `{"results":[`...)
	for i := range entries {
		if i > 0 {
			buf = append(buf, ',')
		}
		e := &entries[i]
		status, errText := e.Status, e.Error
		body := []byte(e.Body)
		if len(body) > 0 && !e.rendered {
			var err error
			if body, err = json.Marshal(e.Body); err != nil {
				body, status, errText = nil, http.StatusBadGateway, fmt.Sprintf("batch: entry body is not JSON: %v", err)
			}
		}
		buf = append(buf, `{"index":`...)
		buf = strconv.AppendInt(buf, int64(e.Index), 10)
		buf = append(buf, `,"status":`...)
		buf = strconv.AppendInt(buf, int64(status), 10)
		if len(body) > 0 {
			buf = append(buf, `,"body":`...)
			buf = append(buf, body...)
		}
		if errText != "" {
			quoted, _ := json.Marshal(errText) // a string always marshals
			buf = append(buf, `,"error":`...)
			buf = append(buf, quoted...)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, `],"groups":`...)
	buf = strconv.AppendInt(buf, int64(groups), 10)
	return append(buf, "}\n"...)
}

// forwardBatchGroup relays a group's open members along the group's
// preference order as one nested /v1/batch call, mapping the answering peer's
// positional results back to this batch's indexes. It reports whether they
// were served; false sends them to local computation.
func (s *Server) forwardBatchGroup(r *http.Request, gkey string, members []batchWork, entries []batchEntry) bool {
	sub := batchRequest{Requests: make([]batchItem, len(members))}
	timeout := time.Duration(0)
	for i, wk := range members {
		op := wk.spec.endpoint[len("/v1/"):]
		sub.Requests[i] = batchItem{Op: op, APIRequest: wk.body}
		if t := s.timeoutFor(wk.body); t > timeout {
			timeout = t
		}
	}
	payload, err := json.Marshal(sub)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	out, _, _, ok := s.forward(ctx, gkey, "/v1/batch", payload)
	if !ok {
		return false
	}
	var resp batchResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.Results) != len(members) {
		s.obs.Count("cluster.fallbacks", 1)
		return false
	}
	s.obs.Count("cluster.forwards", int64(len(members)))
	for i, wk := range members {
		e := resp.Results[i]
		e.Index = wk.idx
		entries[wk.idx] = e
	}
	return true
}
