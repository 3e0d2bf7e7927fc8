package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// cell is one point of the paper's evaluation matrix as the service sees
// it: base hydra (the default), a target, an application and a rank count.
type cell struct {
	Target string `json:"target"`
	Bench  string `json:"bench"`
	Class  string `json:"class"`
	Ranks  int    `json:"ranks"`
}

func (c cell) String() string {
	return fmt.Sprintf("%s.%s@%d->%s", c.Bench, c.Class, c.Ranks, c.Target)
}

// body is the /v1/project and /v1/validate request document.
func (c cell) body() []byte {
	return []byte(fmt.Sprintf(`{"target":%q,"bench":%q,"class":%q,"ranks":%d}`, c.Target, c.Bench, c.Class, c.Ranks))
}

var (
	targets    = []string{"power6-575", "bgp", "westmere-x5670"}
	paperRanks = []int{16, 32, 64, 128}
)

// primedTarget is the one target whose characterisation the primed
// workloads pay for in set-up. One, not the paper's three: priming costs a
// cold projection per target, every pass primes afresh, and the run has to
// fit the time cap. It is the walk's target too, so the walk's bytes can
// be compared with a body this server serves.
const primedTarget = "power6-575"

// classC lists the paper's class-C cells on one target: BT-MZ and SP-MZ
// at 16–128 ranks and LU-MZ at 16.
func classC(target string) []cell {
	var out []cell
	for _, b := range []string{"BT-MZ", "SP-MZ"} {
		for _, r := range paperRanks {
			out = append(out, cell{target, b, "C", r})
		}
	}
	return append(out, cell{target, "LU-MZ", "C", 16})
}

// sweepCells is validate-sweep's universe: the class-C cells plus one
// class-D cell. BT-MZ.D and SP-MZ.D at 16 ranks cost about 3 s each on a
// characterised server, more than the nine class-C cells together, and
// three passes of them do not fit the time cap; LU-MZ.D does.
func sweepCells(target string) []cell {
	return append(classC(target), cell{target, "LU-MZ", "D", 16})
}

// primeCell fills the characterisation layers for primedTarget.
var primeCell = cell{primedTarget, "BT-MZ", "C", 16}

// op is one measured operation. Ops with the same ref send the same
// request and must get the same bytes back; the runner keeps the first
// response per ref and compares the rest against it.
type op struct {
	ref   int
	cell  cell   // the cell asked for (unused by hot-batch)
	items []cell // hot-batch: the batch's items, in order
	body  []byte // request document
}

// env is what a workload runs against. The zero value is the production
// engine; tests substitute a stub evaluation and shrink the priming set.
type env struct {
	eval server.EvalFunc
	tmp  string // parent of the durable workloads' data directories
}

// session is the state one set-up leaves behind for the ops of a pass.
type session struct {
	env     *env
	scope   *obs.Scope // nil in untraced passes
	srv     *server.Server
	h       http.Handler
	dataDir string
	ref     map[cell][]byte // hot-batch: the body served for each key at priming
}

func (s *session) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// newServer builds a default-configuration server (layered store on,
// everything empty), durable when dataDir is set.
func (e *env) newServer(scope *obs.Scope, dataDir string) (*server.Server, error) {
	return server.NewDurable(server.Config{Eval: e.eval, Obs: scope, DataDir: dataDir, WALSyncEvery: time.Hour})
}

// primed is the set-up shared by validate-sweep, hot-batch and
// durable-jobs: a fresh server that has served one projection on
// primedTarget, so the characterisation layers are full and the other
// layers all but empty.
func (e *env) primed(scope *obs.Scope, sp *span, durable bool) (*session, error) {
	s := &session{env: e, scope: scope}
	if durable {
		dir, err := os.MkdirTemp(e.tmp, "durable-")
		if err != nil {
			return nil, fmt.Errorf("creating data dir: %w", err)
		}
		s.dataDir = dir
	}
	srv, err := e.newServer(scope, s.dataDir)
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv, s.h = srv, srv.Handler()
	if _, err := post(s.h, sp, "/v1/project", primeCell.body()); err != nil {
		s.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	return s, nil
}

// workload is one traffic mix. gen must be a pure function of its
// arguments; setup builds fresh state; do runs one op and returns the
// bytes the service answered with; verify, run after the timed window,
// returns one error per op whose output is wrong.
type workload struct {
	name string
	why  string
	// ops is the op count per pass at the default -seconds; maxOps, when
	// set, caps it (a workload whose ops must all be distinct cannot grow
	// beyond its cell universe).
	ops, maxOps int
	gen         func(r *rand.Rand, n int) []op
	setup       func(e *env, scope *obs.Scope, sp *span) (*session, error)
	do          func(s *session, o op, sp *span) ([]byte, error)
	verify      func(s *session, o op, out []byte) error
}

var workloads = []*workload{coldProject, validateSweep, hotBatch, durableJobs}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// coldProject: every op is the first request a freshly built server sees.
var coldProject = &workload{
	name: "cold-project",
	why:  "first /v1/project on an empty server: IMB tables, profiles and des/mpi dominate; where demand-driven tables and a cheaper simulator must show",
	ops:  2,
	gen: func(r *rand.Rand, n int) []op {
		// What an op costs and allocates depends on its target and its
		// application, not on its ranks (every count is characterised
		// whatever is asked). So that no metric depends on the seed, the
		// (target, application) pairs are a fixed cycle — at two ops a
		// pass, BT-MZ on the POWER6 cluster and SP-MZ on the x86 one —
		// and the seed decides each op's ranks.
		cycle := []cell{
			{"power6-575", "BT-MZ", "C", 0},
			{"westmere-x5670", "SP-MZ", "C", 0},
			{"bgp", "BT-MZ", "C", 0},
			{"power6-575", "SP-MZ", "C", 0},
			{"westmere-x5670", "BT-MZ", "C", 0},
			{"bgp", "SP-MZ", "C", 0},
		}
		ops := make([]op, n)
		for i := range ops {
			c := cycle[i%len(cycle)]
			c.Ranks = paperRanks[r.Intn(len(paperRanks))]
			ops[i] = op{ref: i, cell: c, body: c.body()}
		}
		return ops
	},
	// Set-up warms the process, not the server: a cheap cold projection
	// per target on a throwaway server grows the heap and the scheduler's
	// threads before the first timed op, which would otherwise pay for
	// both.
	setup: func(e *env, scope *obs.Scope, sp *span) (*session, error) {
		srv, err := e.newServer(nil, "")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		for _, t := range targets {
			if _, err := post(srv.Handler(), sp, "/v1/project", cell{t, "LU-MZ", "C", 16}.body()); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return &session{env: e, scope: scope}, nil
	},
	do: func(s *session, o op, sp *span) ([]byte, error) {
		c := sp.child("server.New")
		srv, err := s.env.newServer(s.scope, "")
		c.end()
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		return post(srv.Handler(), sp, "/v1/project", o.body)
	},
	verify: func(s *session, o op, out []byte) error { return checkProjection(out) },
}

// validateSweep: the paper's own workload on a characterised server.
var validateSweep = &workload{
	name:   "validate-sweep",
	why:    "the paper's workload, /v1/validate over its class-C cells and one class-D cell on a characterised server: des/mpi through nas, fills profile and surrogate layers, inserts into the result LRU",
	ops:    10,
	maxOps: 10,
	gen: func(r *rand.Rand, n int) []op {
		return shuffledCells(r, n, sweepCells(primedTarget))
	},
	setup: func(e *env, scope *obs.Scope, sp *span) (*session, error) { return e.primed(scope, sp, false) },
	do: func(s *session, o op, sp *span) ([]byte, error) {
		return post(s.h, sp, "/v1/validate", o.body)
	},
	verify: func(s *session, o op, out []byte) error { return checkProjection(out) },
}

// shuffledCells is the first n of a seeded shuffle of cells.
func shuffledCells(r *rand.Rand, n int, cells []cell) []op {
	r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{ref: i, cell: cells[i], body: cells[i].body()}
	}
	return ops
}

const (
	batchItems  = 64  // items per hot-batch op
	batchBodies = 128 // distinct pre-built batches, cycled
	zipfS       = 1.2
)

// zipfShares splits total items over keys ranked 1..keys in proportion to
// 1/rank^zipfS, by largest remainder, so the shares sum to total exactly.
func zipfShares(keys, total int) []int {
	weights := make([]float64, keys)
	var norm float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		norm += weights[k]
	}
	shares := make([]int, keys)
	rest := make([]float64, keys)
	left := total
	for k, w := range weights {
		exact := float64(total) * w / norm
		shares[k] = int(exact)
		rest[k] = exact - float64(shares[k])
		left -= shares[k]
	}
	for ; left > 0; left-- {
		k := 0
		for j := range rest {
			if rest[j] > rest[k] {
				k = j
			}
		}
		shares[k]++
		rest[k] = -1
	}
	return shares
}

// hotBatch: the serving layer alone, every item a result-cache hit.
var hotBatch = &workload{
	name: "hot-batch",
	why:  "/v1/batch of 64 cached items, Zipf over the primed keys: decode, key, result-LRU reads, memoised bytes, batch assembly; the engine contributes nothing, so engine changes must leave it flat",
	ops:  1600,
	gen: func(r *rand.Rand, n int) []op {
		// Every batch holds the same multiset of keys — each key as often
		// as Zipf(s) over its fixed popularity rank gives it among 64
		// items — in a seeded order, so response sizes, and with them the
		// allocation metrics, do not depend on the seed.
		keys := classC(primedTarget)
		var items []cell
		for rank, share := range zipfShares(len(keys), batchItems) {
			for ; share > 0; share-- {
				items = append(items, keys[rank])
			}
		}
		distinct := make([]op, min(n, batchBodies))
		for i := range distinct {
			batch := append([]cell(nil), items...)
			r.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
			docs := make([]string, len(batch))
			for j, c := range batch {
				docs[j] = string(c.body())
			}
			distinct[i] = op{ref: i, items: batch, body: []byte(`{"requests":[` + strings.Join(docs, ",") + `]}`)}
		}
		ops := make([]op, n)
		for i := range ops {
			ops[i] = distinct[i%len(distinct)]
		}
		return ops
	},
	setup: func(e *env, scope *obs.Scope, sp *span) (*session, error) {
		s, err := e.primed(scope, sp, false)
		if err != nil {
			return nil, err
		}
		// One batch computes every key (its members share the
		// characterisation fill); a /v1/project per key then records the
		// body the service serves for it.
		keys := classC(primedTarget)
		docs := make([]string, len(keys))
		for i, k := range keys {
			docs[i] = string(k.body())
		}
		if _, err := post(s.h, sp, "/v1/batch", []byte(`{"requests":[`+strings.Join(docs, ",")+`]}`)); err != nil {
			s.close()
			return nil, fmt.Errorf("priming batch: %w", err)
		}
		s.ref = map[cell][]byte{}
		for _, k := range keys {
			out, err := post(s.h, sp, "/v1/project", k.body())
			if err != nil {
				s.close()
				return nil, fmt.Errorf("priming %s: %w", k, err)
			}
			if err := checkProjection(out); err != nil {
				s.close()
				return nil, fmt.Errorf("priming %s: %w", k, err)
			}
			s.ref[k] = bytes.TrimSuffix(out, []byte("\n"))
		}
		return s, nil
	},
	do: func(s *session, o op, sp *span) ([]byte, error) {
		return post(s.h, sp, "/v1/batch", o.body)
	},
	verify: func(s *session, o op, out []byte) error {
		var resp struct {
			Results []struct {
				Status int             `json:"status"`
				Body   json.RawMessage `json:"body"`
			} `json:"results"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			return fmt.Errorf("decoding batch response: %w", err)
		}
		if len(resp.Results) != len(o.items) {
			return fmt.Errorf("batch returned %d results for %d items", len(resp.Results), len(o.items))
		}
		for i, res := range resp.Results {
			if res.Status != http.StatusOK {
				return fmt.Errorf("item %d (%s): status %d", i, o.items[i], res.Status)
			}
			if !bytes.Equal(res.Body, s.ref[o.items[i]]) {
				return fmt.Errorf("item %d (%s): body differs from the one served at priming", i, o.items[i])
			}
		}
		return nil
	},
}

// durableJobs: the same engine work as a projection, through the job
// manager, the GA checkpoint tap and the fsync-per-record journal.
var durableJobs = &workload{
	name:   "durable-jobs",
	why:    "POST /v1/jobs, follow /events to the end, GET /result, on a NewDurable server with its journal on the real filesystem: writes beside reads; the only workload a cheaper journal can move",
	ops:    9,
	maxOps: 9,
	gen:    func(r *rand.Rand, n int) []op { return shuffledCells(r, n, classC(primedTarget)) },
	setup:  func(e *env, scope *obs.Scope, sp *span) (*session, error) { return e.primed(scope, sp, true) },
	do: func(s *session, o op, sp *span) ([]byte, error) {
		status, out, err := call(s.h, sp, http.MethodPost, "/v1/jobs", []byte(`{"op":"project","request":`+string(o.body)+`}`))
		if err != nil {
			return nil, err
		}
		if status != http.StatusAccepted {
			return nil, fmt.Errorf("POST /v1/jobs: status %d: %s", status, bytes.TrimSpace(out))
		}
		var job struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(out, &job); err != nil || job.ID == "" {
			return nil, fmt.Errorf("POST /v1/jobs: no job id in %q", out)
		}
		// The events handler returns once it has sent the terminal event.
		status, out, err = call(s.h, sp, http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK || !bytes.Contains(out, []byte("event: done")) {
			return nil, fmt.Errorf("GET events for %s: status %d, no terminal event", job.ID, status)
		}
		status, out, err = call(s.h, sp, http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET result for %s: status %d: %s", job.ID, status, bytes.TrimSpace(out))
		}
		return out, nil
	},
	verify: func(s *session, o op, out []byte) error {
		if err := checkProjection(out); err != nil {
			return err
		}
		sync, err := post(s.h, nil, "/v1/project", o.body)
		if err != nil {
			return err
		}
		if !bytes.Equal(sync, out) {
			return errors.New("job result differs from the synchronous /v1/project body")
		}
		return nil
	},
}

// projectionDoc is the part of a projection document the checks read.
type projectionDoc struct {
	TotalSeconds float64 `json:"total_seconds"`
	Validation   *struct {
		ErrCombinedPct float64 `json:"err_combined_pct"`
	} `json:"validation"`
}

// checkProjection requires a projection document with a finite positive
// projected total.
func checkProjection(out []byte) error {
	var doc projectionDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		return fmt.Errorf("decoding projection: %w", err)
	}
	if !(doc.TotalSeconds > 0) || math.IsInf(doc.TotalSeconds, 0) {
		return fmt.Errorf("projected total %v is not finite and positive", doc.TotalSeconds)
	}
	return nil
}

// absErrPct is the |combined error| of a validated projection document,
// and whether the document carries a validation at all.
func absErrPct(out []byte) (float64, bool) {
	var doc projectionDoc
	if json.Unmarshal(out, &doc) != nil || doc.Validation == nil {
		return 0, false
	}
	return math.Abs(doc.Validation.ErrCombinedPct), true
}
