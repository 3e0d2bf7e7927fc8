package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestGroupRunsAll fans a group of tasks out on more workers than there are
// tasks: the pool is clamped to the task count and every task runs once.
func TestGroupRunsAll(t *testing.T) {
	const n = 50
	var ran atomic.Int64
	seen := make([]atomic.Int64, n)
	if err := ForEachW(64, n, func(w, i int) error {
		if w < 0 || w >= n {
			t.Errorf("slot %d out of range [0,%d)", w, n)
		}
		ran.Add(1)
		seen[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Errorf("ran %d tasks, want %d", ran.Load(), n)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Errorf("task %d ran %d times", i, seen[i].Load())
		}
	}
}

// TestGroupFirstError fails every task of a group at once: ForEachW
// returns exactly one of the task errors, never nil and never a wrapper.
// A barrier holds each task until all are in flight, so all of them fail.
func TestGroupFirstError(t *testing.T) {
	const n = 3
	errs := []error{errors.New("e0"), errors.New("e1"), errors.New("e2")}
	var started sync.WaitGroup
	started.Add(n)
	err := ForEachW(n, n, func(_, i int) error {
		started.Done()
		started.Wait()
		return errs[i]
	})
	if err == nil {
		t.Fatal("error dropped")
	}
	found := false
	for _, e := range errs {
		if err == e {
			found = true
		}
	}
	if !found {
		t.Errorf("err = %v, want one of the task errors", err)
	}
}

// TestForEachWLimit pins the concurrency bound the characterisation
// gather relies on: never more than workers tasks at once.
func TestForEachWLimit(t *testing.T) {
	var cur, max atomic.Int64
	var mu sync.Mutex
	if err := ForEachW(2, 20, func(_, i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > max.Load() {
			max.Store(c)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if max.Load() > 2 {
		t.Errorf("concurrency %d exceeded limit 2", max.Load())
	}
}

// TestForEachWHandsOutAscending pins the start-order contract: indices are
// handed out in ascending order, so with every worker busy the next index
// to start is the lowest one not yet started. Each task blocks until the
// test releases it, one at a time.
func TestForEachWHandsOutAscending(t *testing.T) {
	const workers, n = 3, 9
	started := make(chan int, n)
	release := make(chan struct{})
	defer close(release) // on failure, lets every blocked task finish
	done := make(chan error, 1)
	go func() {
		done <- ForEachW(workers, n, func(_, i int) error {
			started <- i
			<-release
			return nil
		})
	}()
	first := map[int]bool{}
	for k := 0; k < workers; k++ {
		first[<-started] = true
	}
	for i := 0; i < workers; i++ {
		if !first[i] {
			t.Fatalf("first %d starts %v, want indices 0..%d", workers, first, workers-1)
		}
	}
	for want := workers; want < n; want++ {
		release <- struct{}{}
		if got := <-started; got != want {
			t.Fatalf("started index %d after a release, want %d", got, want)
		}
	}
	for k := 0; k < workers; k++ {
		release <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 137
		seen := make([]atomic.Int64, n)
		if err := ForEachW(workers, n, func(_, i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, seen[i].Load())
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachW(4, 0, func(int, int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEachW(workers, 64, func(_, i int) error {
			if i == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestForEachWWorkerSlots(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 64
		slots := workers
		if slots > n {
			slots = n
		}
		var perSlot = make([]atomic.Int64, slots)
		var covered = make([]atomic.Int64, n)
		if err := ForEachW(workers, n, func(w, i int) error {
			if w < 0 || w >= slots {
				t.Errorf("workers=%d: slot %d out of range [0,%d)", workers, w, slots)
			}
			perSlot[w].Add(1)
			covered[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := range perSlot {
			total += perSlot[i].Load()
		}
		if total != int64(n) {
			t.Errorf("workers=%d: slots ran %d items, want %d", workers, total, n)
		}
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, covered[i].Load())
			}
		}
	}
}

func TestForEachWSerialIsSlotZero(t *testing.T) {
	if err := ForEachW(1, 10, func(w, i int) error {
		if w != 0 {
			t.Errorf("serial path reported slot %d at index %d", w, i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSerialStopsEarly(t *testing.T) {
	var ran int
	_ = ForEachW(1, 100, func(_, i int) error {
		ran++
		if i == 5 {
			return errors.New("stop")
		}
		return nil
	})
	if ran != 6 {
		t.Errorf("serial path ran %d items after error, want 6", ran)
	}
}
