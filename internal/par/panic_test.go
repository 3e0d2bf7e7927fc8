package par

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestForEachPanicBecomesError proves panic isolation on both execution
// paths: a panicking task surfaces as a *PanicError carrying the panic
// value and a stack trace, instead of crashing the process from a pool
// goroutine.
func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachW(workers, 8, func(_, i int) error {
			if i == 3 {
				panic("boom at 3")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "boom at 3" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: stack not captured", workers)
		}
		if !strings.Contains(pe.Error(), "boom at 3") {
			t.Errorf("workers=%d: Error() = %q", workers, pe.Error())
		}
	}
}

// TestGroupPanicBecomesError covers a group of tasks in flight together:
// one panicking task yields a *PanicError while its siblings, already
// started, still complete. A barrier holds each task until all are in
// flight, so the panic cannot stop a sibling from starting.
func TestGroupPanicBecomesError(t *testing.T) {
	const n = 4
	done := make([]bool, n)
	var started sync.WaitGroup
	started.Add(n)
	err := ForEachW(n, n, func(_, i int) error {
		started.Done()
		started.Wait()
		if i == 1 {
			panic(errors.New("task 1 died"))
		}
		done[i] = true
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ForEachW = %v, want *PanicError", err)
	}
	for _, i := range []int{0, 2, 3} {
		if !done[i] {
			t.Errorf("task %d did not complete after sibling panic", i)
		}
	}
}

// TestPanicErrorKeepsRealErrors pins that ordinary errors still travel
// unwrapped: panic conversion must not intercept the error path.
func TestPanicErrorKeepsRealErrors(t *testing.T) {
	sentinel := errors.New("plain failure")
	err := ForEachW(4, 8, func(_, i int) error {
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the plain sentinel", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Error("plain error must not be wrapped as PanicError")
	}
}
