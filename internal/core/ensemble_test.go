package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ga"
	"repro/internal/par"
)

// TestEnsembleIdenticalAcrossWorkers holds the sliced ensemble to its
// definition: LU-MZ.C@16's compute projection at Workers 1, 2, 3 and 8 has
// the bits of three unsliced searches combined in member order, and so
// does each member of a skewed ensemble at the same worker counts.
func TestEnsembleIdenticalAcrossWorkers(t *testing.T) {
	p, _ := sharedPipes(t)
	app := sharedLU(t)
	const ci = 16
	s, err := p.surrogateSpaceAt(app, ci)
	if err != nil {
		t.Fatal(err)
	}
	groupW := p.groupWeights(s)
	var members [ensemble]*ga.Result
	for m, cfg := range p.ensembleConfigs(app, ci, s, groupW, nil) {
		members[m] = unslicedSearch(t, cfg)
	}
	ref, err := p.combineEnsemble(app, ci, s.names, groupW, members)
	if err != nil {
		t.Fatal(err)
	}
	// %v prints every float in its shortest exact form, so equal strings
	// are equal bits.
	want := fmt.Sprintf("%v", *ref)
	for _, workers := range []int{1, 2, 3, 8} {
		pw := *p
		pw.Workers = workers
		got, err := pw.ProjectCompute(app, ci)
		if err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		if g := fmt.Sprintf("%v", *got); g != want {
			t.Errorf("Workers %d: compute projection\n got %s\nwant %s", workers, g, want)
		}
	}
	// On LU-MZ the members' slices take about as long as each other, so
	// whether a slice waits is a matter of timing. The skewed ensemble
	// makes the waits certain: above one worker, member 0's next slice is
	// handed out while its previous one runs.
	cfgs := skewedConfigs()
	var wantMember [ensemble]string
	for m, cfg := range cfgs {
		wantMember[m] = fmt.Sprintf("%v", *unslicedSearch(t, cfg))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		res, err := searchEnsemble(context.Background(), workers, cfgs)
		if err != nil {
			t.Fatalf("skewed ensemble, Workers %d: %v", workers, err)
		}
		for m, r := range res {
			if g := fmt.Sprintf("%v", *r); g != wantMember[m] {
				t.Errorf("skewed ensemble, Workers %d: member %d\n got %s\nwant %s", workers, m, g, wantMember[m])
			}
		}
	}
}

// ensembleFailCtx is a context whose Err, from its failAt-th call on,
// reports what fail returns — or panics, if fail does. Slices on several
// goroutines ask it, so it counts atomically.
type ensembleFailCtx struct {
	context.Context
	calls  atomic.Int32
	failAt int32
	fail   func() error
}

func (c *ensembleFailCtx) Err() error {
	if c.calls.Add(1) >= c.failAt {
		return c.fail()
	}
	return nil
}

// skewedConfigs is a small ensemble whose member 0 is the slowest by
// far: its slices are still running when its next slice is handed out,
// so above one worker that slice waits on it.
func skewedConfigs() [ensemble]ga.Config {
	var cfgs [ensemble]ga.Config
	for m := range cfgs {
		pop, work := 8, 1
		if m == 0 {
			pop, work = 64, 64
		}
		cfgs[m] = ga.Config{
			GenomeLen: 6, MaxActive: 3, PopSize: pop, Generations: surrogateGenerations,
			Seed: fmt.Sprintf("ensemble-skewed|%d", m),
			Fitness: func(g []float64) float64 {
				var s float64
				for r := 0; r < work; r++ {
					for i, v := range g {
						d := v - float64(i)/8
						s += d * d
					}
				}
				return s
			},
		}
	}
	return cfgs
}

// TestEnsembleFailureEndsEveryWait cancels, and panics, at each of the
// ensemble's context checks at Workers 2 and 3. Whichever slice fails,
// the search must return that failure — context.Canceled, or the panic as
// a *par.PanicError — within the timeout, so no slice is left waiting on
// it, and leave no goroutine behind.
func TestEnsembleFailureEndsEveryWait(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 3} {
		for _, kind := range []struct {
			name string
			fail func() error
			want func(error) bool
		}{
			{"cancel", func() error { return context.Canceled },
				func(err error) bool { return errors.Is(err, context.Canceled) }},
			{"panic", func() error { panic("context dies between slices") },
				func(err error) bool { var pe *par.PanicError; return errors.As(err, &pe) }},
		} {
			for failAt := 1; failAt <= ensemble*gaSlices; failAt++ {
				ctx := &ensembleFailCtx{Context: context.Background(), failAt: int32(failAt), fail: kind.fail}
				done := make(chan error, 1)
				go func() {
					_, err := searchEnsemble(ctx, workers, skewedConfigs())
					done <- err
				}()
				select {
				case err := <-done:
					if !kind.want(err) {
						t.Errorf("Workers %d, %s at call %d: error %v", workers, kind.name, failAt, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("Workers %d, %s at call %d: the search did not return", workers, kind.name, failAt)
				}
			}
		}
	}
	// The pool's goroutines have returned once ForEachW has; give them a
	// moment to be gone from the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the failing searches, %d after", before, n)
	}
}

// BenchmarkEnsemble is the production ensemble — three members of
// BenchmarkSearch's shape — scheduled as slices on the pool. At
// workers=1 it is three searches end to end; at workers=2 the wrap-around
// schedule should read about 1.5 BenchmarkSearch times, not 2.
func BenchmarkEnsemble(b *testing.B) {
	kern, _ := benchKernelFixture(29, 52)
	var cfgs [ensemble]ga.Config
	for m := range cfgs {
		cfgs[m] = benchSearchConfig(kern, fmt.Sprintf("bench-search|%d", m))
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := searchEnsemble(context.Background(), workers, cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
