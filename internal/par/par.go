// Package par provides the small, dependency-free fan-out the evaluation
// engine is built on: ForEachW, a bounded-worker loop over an index space
// with first-error propagation and panic isolation.
//
// The engine's determinism contract (see DESIGN.md, "Parallelism &
// determinism") is that concurrency never touches random-number streams or
// floating-point accumulation order: work items are generated and combined
// serially in a fixed order, and only the pure, independently-keyed
// evaluations in between run on the pool. par therefore only ever executes
// caller-supplied closures; it never reorders results — callers index into
// pre-sized slices.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error: par never lets a
// panicking task kill the process from an anonymous goroutine. Value is
// the recovered panic value and Stack the worker's stack at recovery
// time, so the crash site survives the trip across the pool boundary.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// protect runs f, converting a panic into a *PanicError.
func protect(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return f()
}

// Workers resolves a worker-count knob: n when positive, otherwise
// runtime.GOMAXPROCS(0). By convention across the repository, 1 selects
// the legacy serial path.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachW runs fn(worker, i) for every i in [0, n) on at most workers
// goroutines and returns the first error. Indices are handed out in
// ascending order, so index order is start order: a caller that wants its
// longest tasks started first lists them first. workers <= 1 (or n == 1)
// runs inline on the calling goroutine — the legacy serial path, with no
// goroutine overhead and early exit on error. In the concurrent path an
// error stops workers from taking new indices, but indices already in
// flight complete. A panic in fn becomes a *PanicError on both paths, so a
// caller sees the same failure shape at every worker count.
//
// worker is the executing pool slot, the hook observability layers use to
// attribute spans to workers: slots number 0..min(workers,n)-1, and the
// inline serial path is slot 0. Which slot runs which index is
// scheduling-dependent.
func ForEachW(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			i := i
			if err := protect(func() error { return fn(0, i) }); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
		stop  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := protect(func() error { return fn(w, i) }); err != nil {
					once.Do(func() { first = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
