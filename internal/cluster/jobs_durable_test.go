package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// blockUntilCancelled is a job body that parks until its context ends.
func blockUntilCancelled(ctx context.Context, tap Tap) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDoneIsJournalledBeforeItIsSeen: whoever sees a job end may stop the
// replica at once (the benchmark's job probe does), so by the time the
// stream says done the journal already holds the done record — even with
// every append slowed down.
func TestDoneIsJournalledBeforeItIsSeen(t *testing.T) {
	jl := openTestJournal(t, t.TempDir(), nil)
	defer jl.Close()
	m := NewManager(ManagerConfig{Journal: jl})
	release := make(chan struct{})
	j, err := m.SubmitJob(JobSpec{Op: "project"}, func(ctx context.Context, tap Tap) ([]byte, error) {
		<-release
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	ch, cancel := j.Subscribe()
	defer cancel()
	defer faultinject.Disarm()
	if err := faultinject.Arm("durable.wal.append=delay:50ms"); err != nil {
		t.Fatal(err)
	}
	close(release)
	events := drainEvents(t, ch)
	if n := jl.Stats().Records; n != 2 || len(events) == 0 || events[len(events)-1].Type != "done" {
		t.Fatalf("when the stream closed (%d events) the journal held %d records, want the submit and the done", len(events), n)
	}
}

// TestCloseFailsUnfinishedJobs pins the one way down: Close cancels the
// running job and the queued one alike, each ends failed with the shutdown
// message, each stream gets exactly one ordinary done event and closes,
// retention treats them as any finished job — and the journal is left as
// kill -9 would have left it, both submits and no done, so Recover returns
// both in submission order.
func TestCloseFailsUnfinishedJobs(t *testing.T) {
	jl := openTestJournal(t, t.TempDir(), nil)
	defer jl.Close()
	scope := obs.New("test")
	m := NewManager(ManagerConfig{MaxActive: 1, Retain: 1, Journal: jl, Obs: scope})

	started := make(chan struct{})
	running, err := m.SubmitJob(JobSpec{Op: "project"}, func(ctx context.Context, tap Tap) ([]byte, error) {
		tap.Progress(Snapshot{Member: 0, Generation: 0, BestFitness: 4})
		close(started)
		return blockUntilCancelled(ctx, tap)
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	<-started
	queued, err := m.SubmitJob(JobSpec{Op: "validate"}, blockUntilCancelled)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st := queued.Status(); st.State != JobQueued {
		t.Fatalf("second job is %s, want queued behind MaxActive 1", st.State)
	}
	runCh, runCancel := running.Subscribe()
	defer runCancel()
	queuedCh, queuedCancel := queued.Subscribe()
	defer queuedCancel()

	m.Close()
	m.Close() // idempotent

	for _, tc := range []struct {
		job      *Job
		ch       <-chan Event
		progress int
	}{{running, runCh, 1}, {queued, queuedCh, 0}} {
		waitDone(t, tc.job)
		st := tc.job.Status()
		if st.State != JobFailed || st.Error != "replica shut down before the job finished" {
			t.Errorf("%s: state = %s error = %q, want failed with the shutdown message", tc.job.ID, st.State, st.Error)
		}
		events := drainEvents(t, tc.ch)
		if len(events) != tc.progress+1 {
			t.Fatalf("%s: events = %+v, want %d progress + one done", tc.job.ID, events, tc.progress)
		}
		if term := events[len(events)-1]; term.Type != "done" || term.State != JobFailed {
			t.Errorf("%s: terminal event = %+v, want done/failed", tc.job.ID, term)
		}
	}
	if n, _ := scope.Metrics().Counter("jobs.failed"); n != 2 {
		t.Errorf("jobs.failed = %d, want 2", n)
	}

	if n := jl.Stats().Records; n != 2 {
		t.Errorf("journal holds %d records, want the two submits and no done", n)
	}
	pending, err := jl.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].ID != running.ID || pending[1].ID != queued.ID || pending[1].Op != "validate" {
		t.Errorf("Recover = %+v, want both jobs in submission order", pending)
	}

	// With room for one finished job, the count-based eviction every
	// submission runs drops the older shut-down job and keeps the newer.
	m.mu.Lock()
	m.evictLocked()
	m.mu.Unlock()
	if _, err := m.Get(running.ID); !errors.Is(err, ErrJobUnknown) {
		t.Errorf("the older shut-down job outlived Retain 1: Get err = %v", err)
	}
	if _, err := m.Get(queued.ID); err != nil {
		t.Errorf("the newer shut-down job was evicted within Retain 1: %v", err)
	}
}

// TestOwnFailuresStillJournalDone is the other side of Close's silence: a
// job that fails on its own, or runs into its own deadline, reached a
// terminal state and must journal it, or every restart would re-run a job
// that can only fail again.
func TestOwnFailuresStillJournalDone(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg ManagerConfig
		run RunFunc
	}{
		"fails": {ManagerConfig{}, func(ctx context.Context, tap Tap) ([]byte, error) {
			return nil, errors.New("no such machine")
		}},
		"times-out": {ManagerConfig{Timeout: 10 * time.Millisecond}, blockUntilCancelled},
	} {
		t.Run(name, func(t *testing.T) {
			jl := openTestJournal(t, t.TempDir(), nil)
			defer jl.Close()
			tc.cfg.Journal = jl
			m := NewManager(tc.cfg)
			defer m.Close()
			j, err := m.Submit("project", tc.run)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			waitDone(t, j)
			if st := j.Status(); st.State != JobFailed {
				t.Fatalf("state = %s, want failed", st.State)
			}
			pending, err := jl.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(pending) != 0 || jl.Stats().Records != 2 {
				t.Errorf("pending = %+v, %d records; want none pending, submit + done", pending, jl.Stats().Records)
			}
		})
	}
}

// TestJobSpecIDPreservation: recovered jobs keep their IDs,
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
	j, err := m.SubmitJob(JobSpec{Op: "project"}, func(ctx context.Context, tap Tap) ([]byte, error) {
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
	if len(pending) != 1 || pending[0].ID != j.ID {
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
