package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job did not finish")
	}
}

// TestJobSubmitProgressResult follows one job's progress through its
// states: running while its evaluation runs, with Done open and no result;
// then done, Done closed, the result its run returned.
func TestJobSubmitProgressResult(t *testing.T) {
	m := NewManager(ManagerConfig{})
	started, release := make(chan struct{}), make(chan struct{})
	j, err := m.SubmitJob(JobSpec{Op: "project"}, func(ctx context.Context) ([]byte, error) {
		close(started)
		<-release
		return []byte(`{"ok":true}` + "\n"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if st := j.Status(); st.State != JobRunning || st.HasResult {
		t.Errorf("mid-run status = %+v, want running with no result", st)
	}
	select {
	case <-j.Done():
		t.Fatal("Done closed while the job runs")
	default:
	}
	if _, ok := j.Result(); ok {
		t.Error("a running job exposes a result")
	}
	close(release)
	waitDone(t, j)

	st := j.Status()
	if st.State != JobDone || !st.HasResult {
		t.Fatalf("status = %+v, want done with a result", st)
	}
	body, ok := j.Result()
	if !ok || string(body) != `{"ok":true}`+"\n" {
		t.Errorf("Result = %q, %v", body, ok)
	}
	if got, err := m.Get(j.ID); err != nil || got != j {
		t.Errorf("Get(%s) = %v, %v", j.ID, got, err)
	}
	if _, err := m.Get("job-nope"); !errors.Is(err, ErrJobUnknown) {
		t.Errorf("Get(unknown) err = %v, want ErrJobUnknown", err)
	}
}

// TestJobPanicFailsThenResubmitRuns: a job is one attempt. A worker panic is
// contained — the job ends failed with the panic's message, having run once,
// and exposes no result — and the manager lives on: submitting the same pure
// evaluation again runs it from scratch to exactly the bytes a
// never-panicking run returns.
func TestJobPanicFailsThenResubmitRuns(t *testing.T) {
	m := NewManager(ManagerConfig{})
	runs := 0
	run := func(ctx context.Context) ([]byte, error) {
		runs++
		if runs == 1 {
			panic("worker blew up")
		}
		return []byte("the projection"), nil
	}
	j, err := m.SubmitJob(JobSpec{Op: "project"}, run)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	st := j.Status()
	if st.State != JobFailed || st.Error != "cluster: job worker panicked: worker blew up" {
		t.Fatalf("state = %s (error %q), want failed with the panic's message", st.State, st.Error)
	}
	if runs != 1 {
		t.Errorf("the panicking job ran %d times, want once: nothing is retried in place", runs)
	}
	if _, ok := j.Result(); ok {
		t.Error("failed job must not expose a result")
	}

	again, err := m.SubmitJob(JobSpec{Op: "project"}, run)
	if err != nil {
		t.Fatalf("Submit after a panic: %v", err)
	}
	waitDone(t, again)
	if got, ok := again.Result(); !ok || string(got) != "the projection" {
		t.Errorf("resubmitted job = %q, %v (%+v), want the projection", got, ok, again.Status())
	}
}

// TestJobSlowSubscriberStillGetsDone: however late a reader comes to a job's
// end, it sees it. A reader waiting on Done before the job ends and one that
// first looks long after are both released, and both then read the terminal
// state — for a job that succeeded and for one that failed.
func TestJobSlowSubscriberStillGetsDone(t *testing.T) {
	m := NewManager(ManagerConfig{})
	for want, runErr := range map[JobState]error{JobDone: nil, JobFailed: errors.New("no such machine")} {
		release := make(chan struct{})
		j, err := m.SubmitJob(JobSpec{Op: "project"}, func(ctx context.Context) ([]byte, error) {
			<-release
			return []byte("ok"), runErr
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		early := make(chan JobState)
		go func() {
			<-j.Done()
			early <- j.Status().State
		}()
		close(release)
		if got := <-early; got != want {
			t.Errorf("a reader waiting before the end saw %s, want %s", got, want)
		}
		waitDone(t, j)
		if got := j.Status().State; got != want {
			t.Errorf("a reader arriving after the end saw %s, want %s", got, want)
		}
	}
}

// Admission is bounded: beyond MaxActive+MaxQueued concurrent jobs,
// Submit fails fast with ErrJobQueueFull instead of queueing unboundedly.
// A closed manager gives the other answer, ErrJobsClosed: retrying it
// cannot help.
func TestJobQueueFull(t *testing.T) {
	m := NewManager(ManagerConfig{MaxActive: 1, MaxQueued: 1})
	block := make(chan struct{})
	run := func(ctx context.Context) ([]byte, error) {
		<-block
		return []byte("ok"), nil
	}
	j1, err1 := m.SubmitJob(JobSpec{Op: "project"}, run)
	_, err2 := m.SubmitJob(JobSpec{Op: "project"}, run)
	if err1 != nil || err2 != nil {
		t.Fatalf("first two submissions must admit: %v, %v", err1, err2)
	}
	if _, err := m.SubmitJob(JobSpec{Op: "project"}, run); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("third submission err = %v, want ErrJobQueueFull", err)
	}
	close(block)
	waitDone(t, j1)

	m.Close()
	if _, err := m.SubmitJob(JobSpec{Op: "project"}, run); !errors.Is(err, ErrJobsClosed) || errors.Is(err, ErrJobQueueFull) {
		t.Errorf("submit after Close err = %v, want ErrJobsClosed", err)
	}
}

// Finished jobs beyond the retention bound are evicted oldest-first;
// running jobs are never evicted.
func TestJobRetentionEviction(t *testing.T) {
	m := NewManager(ManagerConfig{MaxActive: 1, MaxQueued: 8, Retain: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := m.SubmitJob(JobSpec{Op: "project"}, func(ctx context.Context) ([]byte, error) {
			return []byte("ok"), nil
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrJobUnknown) {
		t.Errorf("oldest job should be evicted, Get err = %v", err)
	}
	if _, err := m.Get(ids[3]); err != nil {
		t.Errorf("newest job must survive retention: %v", err)
	}
}

// TestJobConcurrentProgressChaos: jobs progressing side by side while
// submitters, Status pollers and Done waiters work concurrently, and Close
// lands in the middle, must be race-free (this test earns its keep under
// -race). Every admitted job ends exactly once: done if its run returned
// before Close, failed with the shutdown message if Close cut it short.
func TestJobConcurrentProgressChaos(t *testing.T) {
	m := NewManager(ManagerConfig{MaxActive: 2, MaxQueued: 64})
	var (
		mu   sync.Mutex
		jobs []*Job
		wg   sync.WaitGroup
	)
	for sub := 0; sub < 4; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				run := func(ctx context.Context) ([]byte, error) { return []byte("ok"), nil }
				if (sub+i)%3 == 0 {
					run = blockUntilCancelled
				}
				j, err := m.SubmitJob(JobSpec{Op: "project"}, run)
				if err != nil {
					if !errors.Is(err, ErrJobsClosed) && !errors.Is(err, ErrJobQueueFull) {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
				wg.Add(2)
				go func() { // a status poller
					defer wg.Done()
					for {
						select {
						case <-j.Done():
							return
						default:
							_ = j.Status()
							_, _ = m.Get(j.ID)
						}
					}
				}()
				go func() { // an event stream's wait
					defer wg.Done()
					<-j.Done()
					_ = j.Status()
				}()
			}
		}(sub)
	}
	time.Sleep(5 * time.Millisecond)
	m.Close()
	wg.Wait()

	if len(jobs) == 0 {
		t.Fatal("no submission was admitted")
	}
	for _, j := range jobs {
		waitDone(t, j)
		switch st := j.Status(); st.State {
		case JobDone:
		case JobFailed:
			if st.Error != "replica shut down before the job finished" {
				t.Errorf("%s failed with %q, want the shutdown message", j.ID, st.Error)
			}
		default:
			t.Errorf("%s ended %s", j.ID, st.State)
		}
	}
}
