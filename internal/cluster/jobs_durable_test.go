package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// blockUntilCancelled is a job body that parks until the drain cancels it.
func blockUntilCancelled(ctx context.Context, tap Tap) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestJobHandedOffTerminalEventCarriesTarget pins the drain/SSE contract: a
// subscriber attached while the job is handed off must stay attached until
// the drain resolves the forwarding address, then receive exactly one
// terminal handed_off event carrying the target URL before the stream
// closes.
func TestJobHandedOffTerminalEventCarriesTarget(t *testing.T) {
	m := NewManager(ManagerConfig{})
	started := make(chan struct{})
	j, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
		tap.Progress(Snapshot{Member: 0, Generation: 0, BestFitness: 4})
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	ch, cancel := j.Subscribe()
	defer cancel()

	if got := m.DrainForHandoff(); len(got) != 1 {
		t.Fatalf("DrainForHandoff = %d jobs, want 1", len(got))
	}
	waitDone(t, j)

	// The job is finished (handed off) but unmarked: no terminal event may
	// have gone out and the stream must still be open.
	for open := true; open; {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("stream closed before MarkHandoffTarget resolved the target")
			}
			if ev.Type != "progress" {
				t.Fatalf("premature terminal event %+v before the target was known", ev)
			}
		default:
			open = false
		}
	}

	const target = "http://peer-2:8080"
	m.MarkHandoffTarget(j.ID, target)
	events := drainEvents(t, ch)
	if len(events) != 1 {
		t.Fatalf("post-mark events = %+v, want exactly the terminal one", events)
	}
	term := events[0]
	if term.Type != "handed_off" || term.State != JobHandedOff || term.Target != target {
		t.Errorf("terminal = %+v, want handed_off/%s/%s", term, JobHandedOff, target)
	}
	if st := j.Status(); st.State != JobHandedOff || st.HandoffTarget != target {
		t.Errorf("status = %s target %q, want handed_off %q", st.State, st.HandoffTarget, target)
	}

	// A late subscriber sees the same logical stream: history, then the
	// terminal handed_off with the target.
	late, lateCancel := j.Subscribe()
	defer lateCancel()
	lateEvents := drainEvents(t, late)
	if n := len(lateEvents); n != 2 || lateEvents[n-1].Type != "handed_off" || lateEvents[n-1].Target != target {
		t.Errorf("late subscription = %+v, want progress + handed_off(%s)", lateEvents, target)
	}
}

// TestJobMarkHandoffEmptyTargetReleases: a drain that found no live peer
// must still release subscribers — the terminal event just carries no
// target.
func TestJobMarkHandoffEmptyTargetReleases(t *testing.T) {
	m := NewManager(ManagerConfig{})
	j, err := m.Submit("project", blockUntilCancelled)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ch, cancel := j.Subscribe()
	defer cancel()
	m.DrainForHandoff()
	waitDone(t, j)
	m.MarkHandoffTarget(j.ID, "")
	events := drainEvents(t, ch)
	if len(events) != 1 || events[0].Type != "handed_off" || events[0].Target != "" {
		t.Errorf("events = %+v, want one targetless handed_off", events)
	}
}

// TestJobRetainAgeSweep: the age janitor's sweep evicts finished jobs past
// RetainAge, never running jobs, and never handed-off jobs still waiting
// for their forwarding address.
func TestJobRetainAgeSweep(t *testing.T) {
	scope := obs.New("test")
	m := NewManager(ManagerConfig{RetainAge: time.Hour, Obs: scope})
	defer m.Close()
	base := time.Unix(1700000000, 0)
	var offset atomic.Int64
	m.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }

	quick, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, quick)
	slow, err := m.Submit("project", blockUntilCancelled)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	if n := m.SweepAged(); n != 0 {
		t.Fatalf("sweep before aging evicted %d", n)
	}
	offset.Store(int64(2 * time.Hour))
	if n := m.SweepAged(); n != 1 {
		t.Fatalf("sweep after aging evicted %d, want 1 (the finished job)", n)
	}
	if _, err := m.Get(quick.ID); !errors.Is(err, ErrJobUnknown) {
		t.Errorf("aged finished job still present: %v", err)
	}
	if _, err := m.Get(slow.ID); err != nil {
		t.Errorf("running job must never age out: %v", err)
	}
	if n, _ := scope.Metrics().Counter("jobs.aged_out"); n != 1 {
		t.Errorf("jobs.aged_out = %d, want 1", n)
	}

	// Hand the running job off but do not resolve the target: it is
	// finished yet must survive the sweep until the mark releases it.
	m.DrainForHandoff()
	waitDone(t, slow)
	offset.Store(int64(4 * time.Hour))
	if n := m.SweepAged(); n != 0 {
		t.Fatalf("sweep evicted %d handed-off jobs awaiting their target", n)
	}
	m.MarkHandoffTarget(slow.ID, "")
	offset.Store(int64(8 * time.Hour))
	if n := m.SweepAged(); n != 1 {
		t.Errorf("sweep after mark evicted %d, want 1", n)
	}
}

// TestJobSpecIDPreservation: recovered and adopted jobs keep their IDs,
// duplicate live IDs are idempotent, and the ID counter jumps past
// resurrected numeric IDs so fresh submissions can never collide.
func TestJobSpecIDPreservation(t *testing.T) {
	m := NewManager(ManagerConfig{})
	quick := func(ctx context.Context, tap Tap) ([]byte, error) {
		return []byte("ok"), nil
	}
	j, err := m.SubmitJob(JobSpec{ID: "job-7", Op: "project"}, quick)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if j.ID != "job-7" {
		t.Fatalf("ID = %q, want the pinned job-7", j.ID)
	}
	waitDone(t, j)
	dup, err := m.SubmitJob(JobSpec{ID: "job-7", Op: "project"}, quick)
	if err != nil || dup != j {
		t.Errorf("duplicate ID returned %v, %v; want the existing job", dup, err)
	}
	fresh, err := m.Submit("project", quick)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if fresh.ID != "job-8" {
		t.Errorf("fresh ID = %q, want job-8 (counter advanced past job-7)", fresh.ID)
	}
	waitDone(t, fresh)
}

// TestManagerJournalLifecycle wires a real journal through the manager: a
// submission is journalled as it happens, recovery mid-run sees the pending
// job, the terminal record retires it, and a clean job costs exactly two
// records however much progress it streams.
func TestManagerJournalLifecycle(t *testing.T) {
	jl := openTestJournal(t, t.TempDir(), nil)
	defer jl.Close()
	m := NewManager(ManagerConfig{Journal: jl})
	recorded := make(chan struct{})
	release := make(chan struct{})
	j, err := m.SubmitJob(JobSpec{Op: "project", Group: "g1"}, func(ctx context.Context, tap Tap) ([]byte, error) {
		for gen := 0; gen < 8; gen++ {
			tap.Progress(Snapshot{Member: 1, Generation: gen, BestFitness: 1})
		}
		close(recorded)
		<-release
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	<-recorded

	pending, err := jl.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != j.ID || pending[0].Group != "g1" {
		t.Fatalf("mid-run recovery = %+v, want the live job", pending)
	}

	close(release)
	waitDone(t, j)
	after, err := jl.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Errorf("post-done recovery = %+v, want none", after)
	}
	if n := jl.Stats().Records; n != 2 {
		t.Errorf("a clean job journalled %d records, want exactly 2 (submit, done)", n)
	}
}
