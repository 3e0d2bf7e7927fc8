// Package server turns the SWAPP pipeline into a shared, concurrent
// projection service: an HTTP JSON API over swapp.Project and
// swapp.ProjectAndValidate with a content-addressed result cache,
// singleflight collapsing of duplicate in-flight queries, a bounded
// worker pool with an admission queue, and per-request deadlines.
//
// Endpoints:
//
//	POST /v1/project    full projection (compute + communication), JSON
//	POST /v1/validate   projection plus the measured run and signed errors
//	GET  /healthz       liveness (always 200 while the process serves)
//	GET  /readyz        readiness (503 once draining)
//
// A projection is deterministic in its request, so results are cached
// under a sha256 of the request's semantic fields (see digest) and
// served byte-identical to what the evaluation produced. Overload is
// explicit: when the admission queue is full the server answers 503 with
// a Retry-After header instead of queueing unboundedly, and a request
// whose deadline expires — waiting or evaluating — returns 504 promptly.
//
// Caching is layered to match the pipeline's reuse structure. The result
// LRU (above) answers exact repeats: it holds each answer's served
// document, rendered once by the evaluation that produced it, so a hit never
// re-marshals. Beneath it a core.Store — shared across every
// evaluation — caches per-machine benchmark characterisations and per-app
// profiles, so requests that differ only in target machine or core count
// ("shared-base warm" traffic) skip the expensive stages they have in
// common instead of recomputing the world; the GA surrogate search runs
// in every evaluation. The store is purely an amortisation: projections
// stay byte-identical with it cold or warm.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/report"
)

// EvalFunc runs one evaluation. op is "project" or "validate", the name of
// the endpoint that serves it. The production function dispatches to
// swapp.ProjectContext / swapp.ProjectAndValidateContext; tests inject
// stubs to exercise the serving machinery without the pipeline's cost.
type EvalFunc func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error)

// defaultEval is the production EvalFunc.
func defaultEval(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
	if op == opValidate {
		return swapp.ProjectAndValidateContext(ctx, req)
	}
	return swapp.ProjectContext(ctx, req)
}

// Operations (and cache-key prefixes).
const (
	opProject  = "project"
	opValidate = "validate"
)

// Config parameterises a Server. The zero value is usable: every field
// defaults sanely in New.
type Config struct {
	// Workers bounds concurrent evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds evaluations waiting for a worker beyond the
	// running ones (default 2×Workers). Arrivals beyond the queue are
	// rejected with 503 + Retry-After.
	QueueDepth int
	// CacheSize bounds the result LRU, in entries (default 128).
	CacheSize int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 5m). MaxTimeout caps client-requested deadlines
	// (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// EvalWorkers is the per-evaluation engine pool size passed through
	// to swapp.Request.Workers (0 = GOMAXPROCS). It does not enter the
	// cache key: the projection is byte-identical at any value.
	EvalWorkers int
	// Obs receives the serving metrics (server.requests, server.inflight,
	// per-layer cache counters server.cache.result_hits /
	// server.cache.characterisation_hits / server.cache.profile_hits with
	// their _misses and _size twins, …). nil disables them.
	Obs *obs.Scope
	// Self is this replica's advertised base URL (e.g.
	// "http://127.0.0.1:8080") and Peers the other replicas' base URLs.
	// When both are set the server runs peer-aware: a consistent-hash ring
	// over the full membership gives each (base, target) group an order of
	// preference among the replicas, and a request this replica does not
	// hold is forwarded to the first of them that answers — concentrating
	// each group's layered-store fills on one replica — or computed here
	// once the order reaches this replica. The ring is fixed; a per-peer
	// breaker is what routes past a dead replica and finds it again.
	// Forwarded requests carry X-Swapp-Forwarded and are always computed
	// where they land (no multi-hop routing).
	Self  string
	Peers []string
	// JobsMaxActive / JobsMaxQueued / JobsRetain parameterise the async
	// jobs API (zero values take the cluster.ManagerConfig defaults). A
	// job's deadline is its request's timeout_ms, as for any request.
	JobsMaxActive int
	JobsMaxQueued int
	JobsRetain    int
	// DataDir roots the server's durable state, which is the job journal
	// alone: a WAL under DataDir/journal. Only NewDurable honours it —
	// with DataDir set it replays the journal at startup, re-running the
	// jobs the previous process left unfinished, killed or closed (counted
	// as jobs.recovered), from their journalled payloads under their
	// original IDs. Characterisation is never on disk: a restarted server
	// rebuilds it on demand exactly as a fresh one does. Empty (the
	// default) keeps the fully in-memory behaviour, byte-identical to
	// pre-durability builds.
	DataDir string
	// WALSyncEvery batches the journal's fsyncs (see durable.Options);
	// 0 — the default — syncs every record, the safe choice for kill -9
	// recovery.
	WALSyncEvery time.Duration
	// Eval overrides the evaluation function (tests).
	Eval EvalFunc
	// nowFn overrides the peer breakers' clock (tests).
	nowFn func() time.Time
	// journal is plumbed by NewDurable into the job manager; New leaves it
	// nil (nothing on disk).
	journal *cluster.Journal
}

// Server is the projection service. Create with New, expose via Handler.
type Server struct {
	cfg   Config
	obs   *obs.Scope
	eval  EvalFunc
	cache *resultCache
	store *core.Store      // shared layered artifact cache
	peers *peerSet         // nil when peer-aware mode is off
	jobs  *cluster.Manager // async jobs API

	journal *cluster.Journal // durable job journal; nil without DataDir

	sem      chan struct{} // worker slots
	queued   atomic.Int64  // arrivals between admission and a slot
	inflight atomic.Int64  // running evaluations
	draining atomic.Bool
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Eval == nil {
		cfg.Eval = defaultEval
	}
	if cfg.nowFn == nil {
		cfg.nowFn = time.Now
	}
	s := &Server{
		cfg:   cfg,
		obs:   cfg.Obs,
		eval:  cfg.Eval,
		cache: lru.New[cacheKey, []byte](cfg.CacheSize),
		store: core.NewStore(core.StoreConfig{Obs: cfg.Obs, MetricPrefix: "server.cache"}),
		sem:   make(chan struct{}, cfg.Workers),
	}
	if cfg.Self != "" && len(cfg.Peers) > 0 {
		s.peers = newPeerSet(cfg.Self, cfg.Peers, cfg.nowFn)
	}
	s.journal = cfg.journal
	s.jobs = cluster.NewManager(cluster.ManagerConfig{
		MaxActive: cfg.JobsMaxActive,
		MaxQueued: cfg.JobsMaxQueued,
		Retain:    cfg.JobsRetain,
		Journal:   cfg.journal,
		Obs:       cfg.Obs,
	})
	return s
}

// Close is the replica's one way down: it stops accepting async job
// submissions, cancels every unfinished job and waits for their runs to
// return (each cancelled job ends failed, with no terminal record — see
// cluster.Manager.Close), then flushes and closes the durable job journal,
// so a job that ended on its own meanwhile has its done record in it. What
// it leaves in DataDir is what kill -9 would have left, so NewDurable on the
// same directory is the one way back from either: unfinished jobs re-run
// under their original IDs.
// Without a DataDir the client resubmits to any live replica. Serving
// endpoints are unaffected (the HTTP listener's Shutdown handles those).
// Idempotent.
func (s *Server) Close() {
	s.jobs.Close()
	_ = s.journal.Close()
}

// SetDraining flips the readiness state: once draining, /readyz answers
// 503 so load balancers stop routing here while in-flight work finishes
// (the listener's graceful Shutdown does the actual waiting).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the API mux. The obs debug surface (pprof, expvar,
// /metrics, /metrics.json) is mounted alongside the API when Obs is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, spec := range endpoints {
		mux.HandleFunc(spec.endpoint, s.handleEval(spec))
	}
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.obs.Enabled() {
		debug := obs.DebugHandler(s.obs)
		for _, p := range []string{"/debug/", "/metrics", "/metrics.json"} {
			mux.Handle(p, debug)
		}
	}
	return s.recovered(mux)
}

// recovered converts a panic escaping any handler into a 500 with a JSON
// body and a server.panics count, instead of net/http's default of killing
// the connection with an empty reply. If the handler already wrote its
// status line the 500 cannot be sent; the count still registers.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.obs.Count("server.panics", 1)
				writeError(w, http.StatusInternalServerError, fmt.Errorf("server: internal panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// APIRequest is the JSON body of the /v1 endpoints.
type APIRequest struct {
	Base   string `json:"base,omitempty"`
	Target string `json:"target"`
	Bench  string `json:"bench"`
	Class  string `json:"class"`
	Ranks  int    `json:"ranks"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 means the
	// server default, and values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// errQueueFull rejects an arrival when the admission queue is at depth.
var errQueueFull = errors.New("server: admission queue full")

// handleEval builds the handler for one evaluation endpoint: decode,
// normalise, then the one resolution order every delivery shares — held
// here, else the group's owner, else compute — and one place that writes
// the answer. spec is fixed at registration so the hot path never rebuilds
// counter names per request.
func (s *Server) handleEval(spec endpointSpec) http.HandlerFunc {
	reqCounter := "server.requests." + spec.endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		s.obs.Count("server.requests", 1)
		s.obs.Count(reqCounter, 1)
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", spec.endpoint))
			return
		}
		var body APIRequest
		if decodeBody(w, r, maxRequestBytes, "request", &body) != 0 {
			return
		}
		req, err := evalRequest(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}

		key := digest(spec.op, req)
		start := time.Now()
		doc, ok := s.held(key)
		oc, peer := outcomeHit, ""
		// Peer-aware mode: a group owned by another replica is forwarded
		// there (unless this request was itself forwarded — the loop
		// guard). A failed forward falls through to local computation.
		if !ok && s.peers != nil && r.Header.Get(forwardedHeader) == "" {
			doc, oc, peer, ok = s.forwardEval(r, spec.endpoint, body, req)
		}
		if !ok {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(body))
			doc, oc, err = s.compute(ctx, key, spec, req)
			cancel()
		}
		s.obs.Observe("server.request_seconds", time.Since(start).Seconds())
		if err != nil {
			status := s.errorStatus(err)
			if status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1") // the admission queue drains
			}
			writeError(w, status, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		if peer != "" {
			h.Set(peerHeader, peer)
		}
		h.Set("X-Cache", string(oc))
		_, _ = w.Write(doc)
	}
}

// evalRequest validates and normalises one API body into an engine request.
func evalRequest(body APIRequest) (swapp.Request, error) {
	if len(body.Class) != 1 {
		return swapp.Request{}, errors.New("class must be a single letter (C or D)")
	}
	return swapp.Request{
		Base:   body.Base,
		Target: body.Target,
		Bench:  nas.Benchmark(body.Bench),
		Class:  nas.Class(body.Class[0]),
		Ranks:  body.Ranks,
	}.Normalized()
}

// errorStatus maps an evaluation error to its HTTP status, counting the
// rejection/error metrics as a side effect — shared by the single-request
// endpoints and the batch entries. A full admission queue is the one 503.
func (s *Server) errorStatus(err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		s.obs.Count("server.rejected", 1)
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the log line only.
		return statusClientClosedRequest
	default:
		s.obs.Count("server.errors", 1)
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's conventional code for a request
// cancelled by its client; net/http has no named constant for it.
const statusClientClosedRequest = 499

// outcome says where an answered document came from. It is the X-Cache
// value of the reply; a forwarded reply carries its owner's.
type outcome string

const (
	outcomeHit  outcome = "hit"  // this replica's result LRU
	outcomeMiss outcome = "miss" // evaluated, or joined an evaluation, for this caller
)

// held answers from what this replica already has — its result LRU, one
// read — on the caller's goroutine: no context, no timer, no admission, no
// allocation. A replica holds only what it computed itself; ownership
// (peer.go) only decides where a miss is filled. Every delivery — single
// endpoint, batch member, async job — asks here before anything else.
func (s *Server) held(key cacheKey) ([]byte, bool) {
	doc, ok := s.cache.Get(key)
	if ok {
		s.obs.Count("server.cache.result_hits", 1)
	}
	return doc, ok
}

// compute is the one miss arm: evaluate (or join whoever already is) and
// count the result cache's verdict on the document it delivers — every
// delivered document counts once, as a hit or a miss.
func (s *Server) compute(ctx context.Context, key cacheKey, spec endpointSpec, req swapp.Request) ([]byte, outcome, error) {
	doc, oc, err := s.evaluate(ctx, spec, key, req)
	if err != nil {
		return nil, "", err
	}
	if oc == outcomeHit {
		s.obs.Count("server.cache.result_hits", 1)
	} else {
		s.obs.Count("server.cache.result_misses", 1)
	}
	return doc, oc, nil
}

// evaluate resolves one endpoint's request under its precomputed cache key:
// return a finished document, join an in-flight evaluation, or lead one.
//
// A leader's failure fails its followers, with one exception: a leader that
// gave up on its own caller's behalf — the client hung up, its timeout_ms ran
// out — has said nothing about the request, so a follower whose own context
// is still alive asks again, and may lead.
func (s *Server) evaluate(ctx context.Context, spec endpointSpec, key cacheKey, req swapp.Request) ([]byte, outcome, error) {
	for {
		doc, flight, leader := s.cache.Lookup(key)
		if flight == nil {
			return doc, outcomeHit, nil
		}
		if leader {
			doc, err := s.lead(ctx, spec, key, req)
			return doc, outcomeMiss, err
		}
		// Someone is already computing this result; wait for them under
		// our own deadline.
		doc, err := flight.Wait(ctx)
		if gaveUp := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded); !gaveUp || ctx.Err() != nil {
			return doc, outcomeMiss, err
		}
	}
}

// lead runs the evaluation its caller was elected to lead: pass admission
// control, run it through the shared layered store, and finish the flight
// with its document — whatever happens — so every follower is released. A
// result that will not render finishes the flight with that error, so
// nothing is cached and the next caller evaluates again.
func (s *Server) lead(ctx context.Context, spec endpointSpec, key cacheKey, req swapp.Request) ([]byte, error) {
	if err := s.admit(ctx); err != nil {
		s.cache.Finish(key, nil, err)
		return nil, err
	}
	s.obs.Gauge("server.inflight", float64(s.inflight.Add(1)))
	req.Workers = s.cfg.EvalWorkers
	req.Store = s.store
	doc, err := s.runEval(ctx, spec, req)
	s.obs.Gauge("server.inflight", float64(s.inflight.Add(-1)))
	<-s.sem
	s.obs.Gauge("server.cache.result_size", float64(s.cache.Finish(key, doc, err)))
	return doc, err
}

// runEval runs one evaluation and renders its endpoint's document, with
// panic isolation: a panic anywhere in the pipeline or the renderer becomes
// an error here, before the worker slot is released and the singleflight
// call is finished — a panicking leader must not leak its slot or leave
// joined waiters blocked forever. This is the one place a document is
// rendered.
func (s *Server) runEval(ctx context.Context, spec endpointSpec, req swapp.Request) (doc []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.obs.Count("server.panics", 1)
			doc, err = nil, fmt.Errorf("server: evaluation panicked: %v", v)
		}
	}()
	res, err := s.eval(ctx, spec.op, req)
	if err != nil {
		return nil, err
	}
	if doc, err = spec.render(res); err != nil {
		return nil, fmt.Errorf("server: rendering %s: %w", spec.endpoint, err)
	}
	return doc, nil
}

// admit takes a worker slot, waiting in the bounded admission queue. The
// queue bound covers transiently-admitting requests plus QueueDepth true
// waiters; beyond it arrivals fail fast with errQueueFull so saturation
// surfaces as 503 instead of unbounded queueing.
func (s *Server) admit(ctx context.Context) error {
	q := s.queued.Add(1)
	defer s.queued.Add(-1)
	if q > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		return errQueueFull
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// renderProject is the /v1/project body: the projection's wire form.
func renderProject(res *swapp.Result) ([]byte, error) {
	return report.MarshalProjection(res.Projection, nil)
}

// renderValidate is the /v1/validate body: projection plus measured run.
func renderValidate(res *swapp.Result) ([]byte, error) {
	return report.MarshalProjection(res.Projection, res.Validation)
}

// Bounds on what a handler will read of a request body before refusing it
// with 413. A single request or a job submission is a few hundred bytes, a
// full 256-item batch some tens of kilobytes.
const (
	maxRequestBytes = 64 << 10
	maxBatchBytes   = 1 << 20
)

// decodeBody strictly decodes the request's JSON body, at most limit bytes
// of it, into v. On failure it has answered — 413 for a body over the limit,
// 400 for one that does not decode — and returns the status it sent; 0 means
// v is filled.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) int {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return 0
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	writeError(w, status, fmt.Errorf("decoding %s: %w", what, err))
	return status
}

// writeError emits the JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, merr := json.Marshal(apiError{Error: err.Error()})
	if merr != nil {
		return
	}
	_, _ = w.Write(append(b, '\n'))
}
