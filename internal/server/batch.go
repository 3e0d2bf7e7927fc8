package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/faultinject"
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
}

// batchResponse is the /v1/batch reply. Groups reports how many distinct
// (base, target) characterisation groups the batch decomposed into — the
// amortisation denominator.
type batchResponse struct {
	Results []batchEntry `json:"results"`
	Groups  int          `json:"groups"`
}

// batchWork is one validated item awaiting evaluation.
type batchWork struct {
	idx  int
	spec endpointSpec
	body APIRequest
	req  swapp.Request
}

// handleBatch serves POST /v1/batch: decode every item, group them by
// normalised (base, target) key, and evaluate group by group — each group
// forwarded whole to its owning replica in peer-aware mode, or run locally
// with its members sharing one characterisation fill through the layered
// store. Item failures are per-entry statuses; the batch itself only fails
// on malformed envelopes.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server.requests", 1)
	s.obs.Count("server.requests./v1/batch", 1)
	if err := faultinject.Fire("server.handler"); err != nil {
		s.obs.Count("server.errors", 1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("/v1/batch requires POST"))
		return
	}
	var breq batchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding batch: %w", err))
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
		key := cluster.GroupKey(req.Base, req.Target)
		groups[key] = append(groups[key], batchWork{idx: i, spec: spec, body: item.APIRequest, req: req})
	}

	// Evaluate group by group, members concurrently: concurrent members of
	// one group collapse onto a single characterisation fill (store
	// singleflight), which is the point of batching. The batch-level
	// semaphore keeps one batch from flooding the admission queue and
	// rejecting itself.
	forwarded := r.Header.Get(forwardedHeader) != ""
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for gkey, members := range groups {
		wg.Add(1)
		go func(gkey string, members []batchWork) {
			defer wg.Done()
			if s.peers != nil && !forwarded && s.forwardBatchGroup(r, gkey, members, entries) {
				return
			}
			var mwg sync.WaitGroup
			for _, wk := range members {
				mwg.Add(1)
				go func(wk batchWork) {
					defer mwg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					entries[wk.idx] = s.runBatchItem(r.Context(), wk)
				}(wk)
			}
			mwg.Wait()
		}(gkey, members)
	}
	wg.Wait()

	for i := range entries {
		entries[i].Index = i
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(batchResponse{Results: entries, Groups: len(groups)})
}

// runBatchItem evaluates one batch member locally, mirroring its endpoint's
// semantics: same cache key, same rendered bytes, same error statuses.
func (s *Server) runBatchItem(parent context.Context, wk batchWork) batchEntry {
	key := digest(wk.spec.op, wk.req)
	// Warm failover, same order as the single endpoints: a replicated
	// result from a (possibly dead) owner serves before any computation.
	if body, ok := s.replicaBytes(key, wk.spec.endpoint); ok {
		return batchEntry{Index: wk.idx, Status: http.StatusOK, Body: json.RawMessage(bytes.TrimSuffix(body, []byte("\n")))}
	}
	ctx, cancel := context.WithTimeout(parent, s.timeoutFor(wk.body))
	defer cancel()
	res, hit, err := s.evaluate(ctx, wk.spec.op, key, wk.req)
	if err != nil {
		status, _ := s.errorStatus(err)
		return batchEntry{Index: wk.idx, Status: status, Error: err.Error()}
	}
	if hit {
		s.obs.Count("server.cache.result_hits", 1)
	} else {
		s.obs.Count("server.cache.result_misses", 1)
	}
	out, err := s.cache.renderedBytes(key, wk.spec.ep, res, wk.spec.render)
	if err != nil {
		s.obs.Count("server.errors", 1)
		return batchEntry{Index: wk.idx, Status: http.StatusInternalServerError, Error: err.Error()}
	}
	if !hit {
		s.maybeReplicate(key, wk.spec.ep, wk.spec.endpoint, res, wk.req, wk.spec.render)
	}
	// The endpoints terminate their documents with '\n'; embedded JSON
	// cannot carry it, so entries hold the document body alone.
	return batchEntry{Index: wk.idx, Status: http.StatusOK, Body: json.RawMessage(bytes.TrimSuffix(out, []byte("\n")))}
}

// forwardBatchGroup relays one whole group to its owning replica as a
// nested /v1/batch call, mapping the peer's positional results back to this
// batch's indexes. It reports whether the group was served; any failure
// counts a fallback and sends the group to local computation.
func (s *Server) forwardBatchGroup(r *http.Request, gkey string, members []batchWork, entries []batchEntry) bool {
	owner, pc := s.peers.route(gkey)
	if pc == nil {
		return false
	}
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
	out, _, err := pc.client.PostRaw(ctx, "/v1/batch", payload, http.Header{forwardedHeader: []string{s.cfg.Self}})
	s.peers.observe(owner, err)
	if err != nil {
		s.obs.Count("cluster.fallbacks", 1)
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
