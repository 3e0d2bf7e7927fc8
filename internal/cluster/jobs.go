package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// JobState is one phase of a job's lifecycle.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Event is the one item on a job's event stream: Type "done", written
// once the job has ended, whether it succeeded or failed, with the State
// it ended in.
type Event struct {
	Type  string   `json:"type"`
	State JobState `json:"state,omitempty"`
}

// RunFunc executes a job's evaluation, from scratch: an evaluation is a pure
// function of the job's payload, so a journal-recovered job — or a client
// resubmitting a failed one — just runs it again. The returned bytes are the
// job's result document, served verbatim. The manager sets no deadline: ctx
// ends only when Close cancels it, and a run bounds itself.
type RunFunc func(ctx context.Context) ([]byte, error)

// ErrJobQueueFull rejects a submission when the backlog is at capacity.
var ErrJobQueueFull = errors.New("cluster: job queue full")

// ErrJobsClosed rejects a submission to a manager that has been closed:
// unlike a full queue, retrying this replica will not help.
var ErrJobsClosed = errors.New("cluster: shutting down")

// errShutdown is the failure Close gives every job it cancels.
var errShutdown = errors.New("replica shut down before the job finished")

// ErrJobUnknown reports a lookup for an absent (or evicted) job.
var ErrJobUnknown = errors.New("cluster: unknown job")

// ManagerConfig parameterises a job Manager. The zero value is usable.
type ManagerConfig struct {
	// MaxActive bounds concurrently running jobs (default 2 — jobs are
	// whole GA searches, each already internally parallel).
	MaxActive int
	// MaxQueued bounds jobs waiting beyond the running ones (default
	// 4×MaxActive): at most MaxActive+MaxQueued unfinished jobs exist at
	// once. Submissions beyond that fail with ErrJobQueueFull.
	MaxQueued int
	// Retain bounds finished jobs kept for polling (default 64; oldest
	// finished evicted first).
	Retain int
	// Journal, when non-nil, receives one durable record per submission
	// and one per terminal state a job reached on its own, so a restarted
	// process can resurrect unfinished jobs (see Journal). nil disables
	// journalling.
	Journal *Journal
	// Obs receives jobs.active / jobs.queued gauges and jobs.completed /
	// jobs.failed counters. nil disables metrics.
	Obs *obs.Scope
}

// Manager owns the replica's async jobs: bounded admission and background
// execution with panic containment. A job is one attempt: nothing a second
// run of a pure function could change is worth re-running it in place for.
type Manager struct {
	cfg ManagerConfig
	obs *obs.Scope

	sem    chan struct{}
	queued atomic.Int64
	active atomic.Int64
	nextID atomic.Int64

	// ctx is the parent of every job's context; Close cancels it, which
	// also refuses further submissions.
	ctx    context.Context
	cancel context.CancelFunc
	// runs counts the jobs admitted and not yet ended, from admission to
	// the return of their execute goroutine; Close waits for it. A job is
	// added under mu, and Close cancels under mu, so no job is added
	// once Close waits.
	runs sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for eviction
}

// NewManager builds a Manager from cfg, applying defaults.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.MaxActive
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
	}
	m := &Manager{
		cfg:  cfg,
		obs:  cfg.Obs,
		sem:  make(chan struct{}, cfg.MaxActive),
		jobs: map[string]*Job{},
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	return m
}

// Job is one asynchronous evaluation. mu guards its state, result and
// error; read them through Status, Result and Done.
type Job struct {
	ID string
	Op string
	// Payload is the job's original submission body, which the journal
	// keeps so a restarted replica can resubmit the job verbatim.
	Payload []byte

	mu       sync.Mutex
	state    JobState
	finished bool
	result   []byte
	errMsg   string
	done     chan struct{}
}

// JobStatus is the JSON-ready view of a job, served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	Op    string   `json:"op"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// HasResult reports a retrievable result document (see the manager's
	// Result accessor); the document itself is served by the jobs API.
	HasResult bool `json:"has_result"`
}

// JobSpec describes one submission: its op and original payload — the
// whole of a job's recoverable state, since an evaluation is re-run from
// its payload, never resumed.
type JobSpec struct {
	// ID, when non-empty, pins the job's identity — recovered jobs keep
	// their original IDs so clients' job URLs survive. Empty for fresh
	// submissions (the manager assigns job-N).
	ID      string
	Op      string
	Payload []byte
}

// SubmitJob enqueues one evaluation described by spec (see JobSpec) and
// returns its job immediately. The evaluation runs in the background:
// queued until a slot frees, run once, finished exactly once. Submitting a
// spec whose ID is already live returns the existing job unchanged — the
// idempotence journal recovery leans on.
func (m *Manager) SubmitJob(spec JobSpec, run RunFunc) (*Job, error) {
	if m.queued.Add(1) > int64(m.cfg.MaxQueued+m.cfg.MaxActive) {
		m.queued.Add(-1)
		return nil, ErrJobQueueFull
	}
	id := spec.ID
	if id == "" {
		id = fmt.Sprintf("job-%d", m.nextID.Add(1))
	} else if n, ok := numericJobID(id); ok {
		// Keep the counter ahead of recovered IDs so fresh submissions
		// can never collide with a resurrected job.
		for {
			cur := m.nextID.Load()
			if cur >= n || m.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	j := &Job{
		ID:      id,
		Op:      spec.Op,
		Payload: spec.Payload,
		state:   JobQueued,
		done:    make(chan struct{}),
	}
	m.mu.Lock()
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		m.queued.Add(-1)
		return nil, ErrJobsClosed
	}
	if existing, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		m.queued.Add(-1)
		return existing, nil
	}
	m.runs.Add(1)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.evictLocked()
	m.mu.Unlock()
	m.obs.Gauge("jobs.queued", float64(m.queued.Load()))
	spec.ID = j.ID
	m.cfg.Journal.RecordSubmit(spec)

	go m.execute(j, run)
	return j, nil
}

// numericJobID extracts N from a manager-assigned "job-N" identifier.
func numericJobID(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, err == nil && n > 0
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Running or queued jobs are never evicted.
func (m *Manager) evictLocked() {
	for len(m.order) > m.cfg.Retain {
		evicted := false
		for i, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			finished := j.finished
			j.mu.Unlock()
			if finished {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the backlog bound catch up
		}
	}
}

// execute runs one job to completion: take a slot, run the evaluation once,
// publish the outcome. Close cuts it short wherever it is — waiting for a
// slot or mid-run — and the job ends failed with errShutdown.
func (m *Manager) execute(j *Job, run RunFunc) {
	// The backlog counter decrements only when the job finishes, so the
	// admission bound (MaxActive+MaxQueued unfinished jobs) is exact — a
	// submission can never sneak past it by racing a slot acquisition.
	defer m.runs.Done()
	defer func() {
		m.queued.Add(-1)
		m.obs.Gauge("jobs.queued", float64(m.queued.Load()))
	}()
	select {
	case m.sem <- struct{}{}:
	case <-m.ctx.Done():
		m.finish(j, nil, errShutdown)
		return
	}
	defer func() { <-m.sem }()
	m.obs.Gauge("jobs.active", float64(m.active.Add(1)))
	defer func() { m.obs.Gauge("jobs.active", float64(m.active.Add(-1))) }()

	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	result, err := m.attempt(m.ctx, run)
	if err != nil && m.ctx.Err() != nil {
		err = errShutdown
	}
	m.finish(j, result, err)
}

// finish publishes a job's terminal state and then closes j.done, which is
// what every reader of the job's end waits on (Done).
//
// The done record is written before either: whoever sees the job end may
// stop the replica at once, and what a client saw finished must not run
// again on the next start. A job Close cancelled gets no done record:
// the journal is left holding exactly what kill -9 would have left — a
// submit with no terminal state — so the next start on the same journal
// re-runs it under its original ID.
func (m *Manager) finish(j *Job, result []byte, err error) {
	state := JobDone
	if err != nil {
		state = JobFailed
	}
	if !errors.Is(err, errShutdown) {
		m.cfg.Journal.RecordDone(j.ID, state)
	}

	j.mu.Lock()
	j.state, j.finished = state, true
	if err != nil {
		j.errMsg = err.Error()
	} else {
		j.result = result
	}
	j.mu.Unlock()

	if state == JobFailed {
		m.obs.Count("jobs.failed", 1)
	} else {
		m.obs.Count("jobs.completed", 1)
	}
	close(j.done)
}

// attempt runs the evaluation with panic containment: a panicking worker
// becomes a failed job, not a dead manager goroutine.
func (m *Manager) attempt(ctx context.Context, run RunFunc) (result []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			result, err = nil, fmt.Errorf("cluster: job worker panicked: %v", v)
		}
	}()
	return run(ctx)
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrJobUnknown
	}
	return j, nil
}

// Status returns the JSON-ready view of a job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, Op: j.Op, State: j.state, Error: j.errMsg,
		HasResult: j.result != nil,
	}
}

// Result returns the finished result document, or false while the job has
// not succeeded.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	return j.result, true
}

// Done is closed once the job has ended — after its done record, if it
// gets one (see finish), is in the journal; Status then reports its
// terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Close is the manager's one way down: submissions stop (ErrJobsClosed)
// and every unfinished job — running or still queued — is cancelled. Each
// ends failed with "replica shut down before the job finished", its Done
// closes as for any job, and no done record is journalled for it (see
// finish). A run that returns a result despite the cancellation ends done
// and journals it as any finished job does.
//
// Close returns once every job has ended, so nothing is journalled after
// it: the journal can be closed next without dropping a done record a
// client has seen. Every run honours its context at the engine's stage
// boundaries, so the wait lasts at most one stage. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.cancel()
	m.mu.Unlock()
	m.runs.Wait()
}
