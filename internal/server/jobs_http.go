package server

import (
	"bytes"
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
	// Op selects the endpoint semantics: "project" (default), "validate",
	// or "surrogate".
	Op      string     `json:"op,omitempty"`
	Request APIRequest `json:"request"`
}

// handleJobSubmit serves POST /v1/jobs: validate the embedded request,
// enqueue it on the job manager, and answer 202 with the job's status
// document. The job resolves in the background (see jobRun), per-generation
// GA progress recorded as snapshots when it computes. It is one attempt: a
// failed or panicked evaluation ends the job failed, and its client resubmits.
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
	op, spec, req, err := jreq.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The job carries a re-marshalled submission body: the journal keeps it,
	// and a restarted replica re-runs the job from it.
	payload, err := json.Marshal(jobRequest{Op: op, Request: jreq.Request})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	job, err := s.jobs.SubmitJob(cluster.JobSpec{Op: op, Payload: payload}, s.jobRun(spec, req, s.timeoutFor(jreq.Request)))
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

// resolve turns a decoded submission into what running it needs: the op
// with its default applied, the endpoint semantics, and the validated
// evaluation request. Fresh submissions and journal recovery share it.
func (jreq jobRequest) resolve() (op string, spec endpointSpec, req swapp.Request, err error) {
	op = jreq.Op
	if op == "" {
		op = "project"
	}
	spec, ok := endpoints[op]
	if !ok {
		return "", endpointSpec{}, swapp.Request{}, fmt.Errorf("unknown op %q", jreq.Op)
	}
	req, err = evalRequest(jreq.Request)
	return op, spec, req, err
}

// jobRun builds the background run function for one submitted job: the
// path every delivery takes, minus the owner hop — held, else compute with
// the GA progress tap wired to the job's streams, under the request's own
// deadline (timeoutFor) from the moment the job takes a slot. A job whose
// result this replica holds therefore finishes at once, with no progress
// events and the endpoint's bytes; a computed job leaves its result in the
// LRU for the next caller; and jobs share the sync path's admission pool,
// deadline and single-flight (a job that joins an evaluation already running
// streams no progress either).
func (s *Server) jobRun(spec endpointSpec, req swapp.Request, timeout time.Duration) cluster.RunFunc {
	key := digest(spec.op, req)
	return func(ctx context.Context, tap cluster.Tap) ([]byte, error) {
		if doc, ok := s.held(key, spec); ok {
			return doc, nil
		}
		var progress progressFunc
		if tap.Progress != nil {
			progress = func(member, gen int, best float64) {
				tap.Progress(cluster.Snapshot{Member: member, Generation: gen, BestFitness: best})
			}
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		doc, _, err := s.compute(ctx, key, spec, req, progress)
		return doc, err
	}
}

// handleJob serves the per-job GETs:
//
//	GET /v1/jobs/{id}         status document
//	GET /v1/jobs/{id}/events  Server-Sent Events progress stream
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

// serveJobEvents streams a job's progress as Server-Sent Events: the
// retained history replays first, then live snapshots, then exactly one
// terminal "done" event closes the stream. Each event is one `data:` line
// holding the cluster.Event JSON. Every frame is built in one reused
// buffer by one encoder, so a stream allocates the same whatever number
// of events reaches it.
func (s *Server) serveJobEvents(w http.ResponseWriter, r *http.Request, job *cluster.Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	events, cancel := job.Subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// ev outlives the loop so that Encode(&ev) boxes one pointer per
	// stream, not one per event.
	var (
		frame bytes.Buffer
		enc   = json.NewEncoder(&frame)
		ev    cluster.Event
		open  bool
	)
	for {
		select {
		case ev, open = <-events:
			if !open {
				return
			}
			// "event: T\ndata: JSON\n\n": Encode ends the JSON with the
			// first of the two newlines.
			frame.Reset()
			frame.WriteString("event: ")
			frame.WriteString(ev.Type)
			frame.WriteString("\ndata: ")
			if enc.Encode(&ev) != nil {
				continue
			}
			frame.WriteByte('\n')
			_, _ = w.Write(frame.Bytes())
			flusher.Flush()
			if ev.Type == "done" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
