package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// drainEvents collects events from a subscription until the channel closes
// or the timeout fires.
func drainEvents(t *testing.T, ch <-chan Event) []Event {
	t.Helper()
	var got []Event
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return got
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("subscription did not close; got %d events so far", len(got))
		}
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job did not finish")
	}
}

func TestJobSubmitProgressResult(t *testing.T) {
	m := NewManager(ManagerConfig{})
	j, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
		for gen := 0; gen < 4; gen++ {
			tap.Progress(Snapshot{Member: 0, Generation: gen, BestFitness: float64(10 - gen)})
		}
		return []byte(`{"ok":true}` + "\n"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)

	st := j.Status()
	if st.State != JobDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Snapshots != 4 || len(st.Progress) != 4 {
		t.Errorf("snapshots = %d progress = %d, want 4, 4", st.Snapshots, len(st.Progress))
	}
	if st.Progress[3].BestFitness != 7 {
		t.Errorf("last snapshot fitness = %v, want 7", st.Progress[3].BestFitness)
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
	run := func(ctx context.Context, tap Tap) ([]byte, error) {
		runs++
		tap.Progress(Snapshot{Member: 1, Generation: 0, BestFitness: 5})
		tap.Progress(Snapshot{Member: 0, Generation: 0, BestFitness: 9})
		if runs == 1 {
			panic("worker blew up")
		}
		return []byte("the projection"), nil
	}
	j, err := m.Submit("project", run)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, j)
	st := j.Status()
	if st.State != JobFailed || st.Error != "cluster: job worker panicked: worker blew up" {
		t.Fatalf("state = %s (error %q), want failed with the panic's message", st.State, st.Error)
	}
	if runs != 1 || st.Snapshots != 2 {
		t.Errorf("the panicking job ran %d times and streamed %d snapshots, want 1 and 2: nothing is retried in place", runs, st.Snapshots)
	}
	if _, ok := j.Result(); ok {
		t.Error("failed job must not expose a result")
	}

	again, err := m.Submit("project", run)
	if err != nil {
		t.Fatalf("Submit after a panic: %v", err)
	}
	waitDone(t, again)
	if got, ok := again.Result(); !ok || string(got) != "the projection" || again.Status().Snapshots != 2 {
		t.Errorf("resubmitted job = %q, %v with %d snapshots (%+v), want the projection and its own 2", got, ok, again.Status().Snapshots, again.Status())
	}
}

// Subscribers attached mid-run replay history, then receive live events,
// then exactly one done event before close. Late subscribers get the same
// logical stream from history alone.
func TestJobSubscribeReplayAndLive(t *testing.T) {
	m := NewManager(ManagerConfig{})
	release := make(chan struct{})
	started := make(chan struct{})
	j, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
		tap.Progress(Snapshot{Member: 0, Generation: 0, BestFitness: 2})
		close(started)
		<-release
		tap.Progress(Snapshot{Member: 0, Generation: 1, BestFitness: 1})
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	ch, cancel := j.Subscribe()
	defer cancel()
	close(release)
	events := drainEvents(t, ch)

	var progress, done int
	for _, ev := range events {
		switch ev.Type {
		case "progress":
			progress++
		case "done":
			done++
			if ev.State != JobDone {
				t.Errorf("done state = %s, want done", ev.State)
			}
		}
	}
	if progress != 2 || done != 1 {
		t.Fatalf("events = %d progress + %d done, want 2 + 1 (total %d)", progress, done, len(events))
	}

	waitDone(t, j)
	late, lateCancel := j.Subscribe()
	defer lateCancel()
	lateEvents := drainEvents(t, late)
	if len(lateEvents) != 3 || lateEvents[2].Type != "done" {
		t.Fatalf("late subscription = %d events (last %+v), want history + done", len(lateEvents), lateEvents[len(lateEvents)-1])
	}
}

// A subscriber that falls behind loses progress events, never the terminal
// one: a job reporting more snapshots than the stream buffers while nobody
// reads still ends the stream with done.
func TestJobSlowSubscriberStillGetsDone(t *testing.T) {
	m := NewManager(ManagerConfig{})
	subscribed := make(chan struct{})
	started := make(chan struct{})
	j, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
		close(started)
		<-subscribed
		for gen := 0; gen < 200; gen++ {
			tap.Progress(Snapshot{Generation: gen})
		}
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	ch, cancel := j.Subscribe()
	defer cancel()
	close(subscribed)
	waitDone(t, j) // nothing has read the stream yet
	events := drainEvents(t, ch)
	var last Event
	if len(events) > 0 {
		last = events[len(events)-1]
	}
	if last.Type != "done" || last.State != JobDone {
		t.Fatalf("a slow subscriber's %d events end with %+v, want done", len(events), last)
	}
}

// Admission is bounded: beyond MaxActive+MaxQueued concurrent jobs,
// Submit fails fast with ErrJobQueueFull instead of queueing unboundedly.
// A closed manager gives the other answer, ErrJobsClosed: retrying it
// cannot help.
func TestJobQueueFull(t *testing.T) {
	m := NewManager(ManagerConfig{MaxActive: 1, MaxQueued: 1})
	block := make(chan struct{})
	run := func(ctx context.Context, tap Tap) ([]byte, error) {
		<-block
		return []byte("ok"), nil
	}
	j1, err1 := m.Submit("project", run)
	_, err2 := m.Submit("project", run)
	if err1 != nil || err2 != nil {
		t.Fatalf("first two submissions must admit: %v, %v", err1, err2)
	}
	if _, err := m.Submit("project", run); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("third submission err = %v, want ErrJobQueueFull", err)
	}
	close(block)
	waitDone(t, j1)

	m.Close()
	if _, err := m.Submit("project", run); !errors.Is(err, ErrJobsClosed) || errors.Is(err, ErrJobQueueFull) {
		t.Errorf("submit after Close err = %v, want ErrJobsClosed", err)
	}
}

// Finished jobs beyond the retention bound are evicted oldest-first;
// running jobs are never evicted.
func TestJobRetentionEviction(t *testing.T) {
	m := NewManager(ManagerConfig{MaxActive: 1, MaxQueued: 8, Retain: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
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

// Concurrent progress reporting, subscription churn, and status polling
// must be race-free (this test earns its keep under -race).
func TestJobConcurrentProgressChaos(t *testing.T) {
	m := NewManager(ManagerConfig{HistoryCap: 32})
	const members, gens = 4, 50
	j, err := m.Submit("project", func(ctx context.Context, tap Tap) ([]byte, error) {
		var wg sync.WaitGroup
		for mem := 0; mem < members; mem++ {
			wg.Add(1)
			go func(mem int) {
				defer wg.Done()
				for gen := 0; gen < gens; gen++ {
					tap.Progress(Snapshot{Member: mem, Generation: gen, BestFitness: float64(gen)})
				}
			}(mem)
		}
		wg.Wait()
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := j.Subscribe()
				select {
				case <-ch:
				default:
				}
				cancel()
				_ = j.Status()
			}
		}()
	}
	waitDone(t, j)
	close(stop)
	wg.Wait()

	st := j.Status()
	if st.State != JobDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.Snapshots != members*gens {
		t.Errorf("snapshots = %d, want %d", st.Snapshots, members*gens)
	}
	if len(st.Progress) != 32 {
		t.Errorf("retained history = %d, want HistoryCap 32", len(st.Progress))
	}
}
