package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	swapp "repro"
	"repro/internal/cluster"
)

// jobRequest is the POST /v1/jobs body: an operation name plus the usual
// evaluation request.
type jobRequest struct {
	// Op selects the endpoint semantics: "project" (default) or
	// "validate".
	Op      string     `json:"op,omitempty"`
	Request APIRequest `json:"request"`
}

// handleJobSubmit serves POST /v1/jobs: validate the embedded request,
// enqueue it on the job manager, and answer 202 with the job's status
// document. The job resolves in the background (see jobRun). It is one
// attempt: a failed or panicked evaluation ends the job failed, and its
// client resubmits.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server.requests", 1)
	s.obs.Count("server.requests./v1/jobs", 1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("/v1/jobs requires POST"))
		return
	}
	var jreq jobRequest
	if decodeBody(w, r, maxRequestBytes, "job request", &jreq) != 0 {
		return
	}
	spec, req, err := jreq.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The job carries a re-marshalled submission body: the journal keeps it,
	// and a restarted replica re-runs the job from it.
	payload, err := json.Marshal(jobRequest{Op: spec.op, Request: jreq.Request})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	job, err := s.jobs.SubmitJob(cluster.JobSpec{Op: spec.op, Payload: payload}, s.jobRun(spec, req, s.timeoutFor(jreq.Request)))
	if err != nil {
		// A full queue drains, so the client is told to come back; a
		// replica that is shutting down is not worth retrying.
		if !errors.Is(err, cluster.ErrJobsClosed) {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	_ = enc.Encode(job.Status())
}

// resolve turns a decoded submission into what running it needs: the
// endpoint semantics (its op, default applied) and the validated evaluation
// request. Fresh submissions and journal recovery share it.
func (jreq jobRequest) resolve() (endpointSpec, swapp.Request, error) {
	spec, err := endpointFor(jreq.Op)
	if err != nil {
		return endpointSpec{}, swapp.Request{}, err
	}
	req, err := evalRequest(jreq.Request)
	return spec, req, err
}

// jobRun builds the background run function for one submitted job: the
// path every delivery takes, minus the owner hop — held, else compute,
// under the request's own deadline (timeoutFor) from the moment the job
// takes a slot. A job whose result this replica holds therefore finishes at
// once with the endpoint's bytes; a computed job leaves its result in the
// LRU for the next caller; and jobs share the sync path's admission pool,
// deadline and single-flight.
func (s *Server) jobRun(spec endpointSpec, req swapp.Request, timeout time.Duration) cluster.RunFunc {
	key := digest(spec.op, req)
	return func(ctx context.Context) ([]byte, error) {
		if doc, ok := s.held(key); ok {
			return doc, nil
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		doc, _, err := s.compute(ctx, key, spec, req)
		return doc, err
	}
}

// handleJob serves the per-job GETs:
//
//	GET /v1/jobs/{id}         status document
//	GET /v1/jobs/{id}/events  Server-Sent Events: one done event at the end
//	GET /v1/jobs/{id}/result  the finished document, verbatim
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server.requests", 1)
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("job endpoints require GET"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	job, err := s.jobs.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	switch sub {
	case "":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(job.Status())
	case "events":
		s.serveJobEvents(w, r, job)
	case "result":
		out, ok := job.Result()
		if !ok {
			st := job.Status()
			if st.State == cluster.JobFailed {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s", id, st.Error))
				return
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("job %s is %s", id, st.State))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out)
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job endpoint %q", sub))
	}
}

// serveJobEvents answers a job's event stream: the headers at once, then —
// when the job ends, or at once if it already has — its one event, "done",
// whose data is the cluster.Event JSON. A client that hangs up first gets
// nothing more.
func (s *Server) serveJobEvents(w http.ResponseWriter, r *http.Request, job *cluster.Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	select {
	case <-job.Done():
	case <-r.Context().Done():
		return
	}
	// Two strings always marshal.
	data, _ := json.Marshal(cluster.Event{Type: "done", State: job.Status().State})
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	flusher.Flush()
}
