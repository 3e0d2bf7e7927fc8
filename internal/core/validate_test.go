package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/report"
)

// cellStore shares characterisation and profiles across this file's
// tests, so a cell two of them evaluate is prepared once.
var cellStore = core.NewStore(core.StoreConfig{})

// preparedCell runs the preparation step every evaluation runs for
// (b.C, ranks) from Hydra onto target.
func preparedCell(tb testing.TB, target string, b nas.Benchmark, ranks int) (*core.Pipeline, *core.AppModel) {
	tb.Helper()
	pipe, app, err := core.Prepare(context.Background(), arch.MustGet(arch.Hydra), arch.MustGet(target),
		b, nas.ClassC, ranks, core.Options{Store: cellStore})
	if err != nil {
		tb.Fatal(err)
	}
	return pipe, app
}

// withWorkers is p at another pool width, instrumented by sc.
func withWorkers(p *core.Pipeline, workers int, sc *obs.Scope) *core.Pipeline {
	q := *p
	q.Workers = workers
	q.Obs = sc
	return &q
}

// TestValidateParallelMatchesSerial holds the overlapped validation to the
// serial one: the projection and the measured run write separate slots and
// everything after the barrier is read serially, so Workers 8 must give
// Workers 1's validation bit for bit, and the same wire bytes.
func TestValidateParallelMatchesSerial(t *testing.T) {
	cells := []struct {
		target string
		bench  nas.Benchmark
		ranks  int
		long   bool
	}{
		{arch.Power6, nas.LU, 16, false},
		{arch.BlueGene, nas.SP, 32, true},
	}
	for _, c := range cells {
		t.Run(string(c.bench)+"@"+c.target, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("a 128-rank characterisation; the LU-MZ cell covers -short")
			}
			pipe, app := preparedCell(t, c.target, c.bench, c.ranks)
			serial, err := withWorkers(pipe, 1, nil).Validate(app, c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := withWorkers(pipe, 8, nil).Validate(app, c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, pooled) {
				t.Error("validation differs between Workers 1 and 8")
			}
			for _, e := range []struct {
				name string
				s, p float64
			}{
				{"ErrCombined", serial.ErrCombined, pooled.ErrCombined},
				{"ErrCompute", serial.ErrCompute, pooled.ErrCompute},
				{"ErrComm", serial.ErrComm, pooled.ErrComm},
			} {
				if math.Float64bits(e.s) != math.Float64bits(e.p) {
					t.Errorf("%s: serial %v, pooled %v", e.name, e.s, e.p)
				}
			}
			sb, err := report.MarshalProjection(serial.Proj, serial)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := report.MarshalProjection(pooled.Proj, pooled)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, pb) {
				t.Errorf("wire bytes differ:\nserial %s\npooled %s", sb, pb)
			}
		})
	}
}

// TestValidateErrorPrecedence pins ValidateCtx's error contract at both
// pool widths: the projection's error wins whatever the schedule, a failed
// measured run names its target, a cancelled context runs nothing, and no
// goroutine outlives a call.
func TestValidateErrorPrecedence(t *testing.T) {
	pipe, app := preparedCell(t, arch.Power6, nas.LU, 16)
	const ck = 16
	// A copy of the target too small to run the job: its measured run
	// fails before simulating anything, while its projection is unchanged.
	small := *pipe.Target
	small.TotalCores = ck / 2
	broken := *pipe
	broken.Target = &small
	// Copies whose projection fails: with no target SPEC results before the
	// GA search (no surrogate pool), with no IMB tables after it.
	noSpec := *pipe
	noSpec.SpecTarget = nil
	brokenNoSpec := broken
	brokenNoSpec.SpecTarget = nil
	brokenNoIMB := broken
	brokenNoIMB.IMBBase, brokenNoIMB.IMBTarget = nil, nil

	// Warm the simulator's coroutine free list at the widest this test
	// runs, so each case's baseline already counts its parked goroutines.
	if _, err := withWorkers(pipe, 8, nil).Validate(app, ck); err != nil {
		t.Fatal(err)
	}
	// settled waits for the goroutine count to fall back to baseline: a
	// pool goroutine may still be returning when ValidateCtx does.
	settled := func(t *testing.T, baseline int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines after the call, baseline %d", runtime.NumGoroutine(), baseline)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	// spans lists the names of the spans under the one core.validate span.
	spans := func(t *testing.T, sc *obs.Scope) []string {
		t.Helper()
		root := sc.Trace()
		if len(root.Spans) != 1 || !strings.HasPrefix(root.Spans[0].Name, "core.validate.") {
			t.Fatalf("want one core.validate span, got %+v", root.Spans)
		}
		var names []string
		for _, s := range root.Spans[0].Spans {
			names = append(names, s.Name)
		}
		return names
	}

	for _, workers := range []int{1, 8} {
		t.Run("projection-first/workers="+strconv.Itoa(workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			// Against the real target the measured run would succeed; against
			// the broken one both tasks fail. Either way the projection's
			// error is the answer, on every call.
			for _, p := range []*core.Pipeline{&noSpec, &brokenNoSpec} {
				for call := 0; call < 20; call++ {
					sc := obs.New("test")
					_, err := withWorkers(p, workers, sc).ValidateCtx(context.Background(), app, ck)
					if err == nil || !strings.Contains(err.Error(), "surrogate pool too small") {
						t.Fatalf("call %d on %s: err = %v, want the projection's", call, p.Target.Name, err)
					}
					if workers == 1 {
						for _, name := range spans(t, sc) {
							if strings.HasPrefix(name, "measured-run.") {
								t.Fatalf("call %d: %s recorded at Workers 1 after the projection failed", call, name)
							}
						}
					}
				}
			}
			settled(t, baseline)
		})

		t.Run("projection-fails-last/workers="+strconv.Itoa(workers), func(t *testing.T) {
			// The broken target's measured run fails at once; the projection
			// fails only after its GA search. The later, lower-index error is
			// still the answer.
			baseline := runtime.NumGoroutine()
			want := fmt.Sprintf("core: pipeline has no IMB tables for %d ranks", ck)
			for call := 0; call < 5; call++ {
				_, err := withWorkers(&brokenNoIMB, workers, nil).ValidateCtx(context.Background(), app, ck)
				if err == nil || err.Error() != want {
					t.Fatalf("call %d: err = %v, want the projection's %q", call, err, want)
				}
			}
			settled(t, baseline)
		})

		t.Run("measured-run-fails/workers="+strconv.Itoa(workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			_, err := withWorkers(&broken, workers, nil).ValidateCtx(context.Background(), app, ck)
			want := "core: measured run on " + small.Name + ": "
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("err = %v, want prefix %q", err, want)
			}
			settled(t, baseline)
		})

		t.Run("cancelled/workers="+strconv.Itoa(workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			sc := obs.New("test")
			_, err := withWorkers(pipe, workers, sc).ValidateCtx(ctx, app, ck)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if names := spans(t, sc); len(names) != 0 {
				t.Errorf("a cancelled validation ran %v", names)
			}
			settled(t, baseline)
		})
	}
}

// BenchmarkValidateOverlap times one validation of a prepared LU-MZ.C@16
// pipeline at Workers 1 and at the default back to back, and reports the
// wall-clock ratio: how much of the measured run the pooled path hides
// behind the GA search (~1 with no idle CPU to run it on).
func BenchmarkValidateOverlap(b *testing.B) {
	// At GOMAXPROCS=1 the two tasks cannot overlap, so the ratio is
	// goroutine overhead — skip rather than record a meaningless ~1x.
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("overlap ratio is meaningless at GOMAXPROCS=1 (the two tasks cannot run at once); rerun with GOMAXPROCS>=2")
	}
	pipe, app := preparedCell(b, arch.Power6, nas.LU, 16)
	serialPipe, pooledPipe := withWorkers(pipe, 1, nil), withWorkers(pipe, 0, nil)
	var serial, pooled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := serialPipe.Validate(app, 16); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(t0)
		t1 := time.Now()
		if _, err := pooledPipe.Validate(app, 16); err != nil {
			b.Fatal(err)
		}
		pooled += time.Since(t1)
	}
	b.ReportMetric(serial.Seconds()/pooled.Seconds(), "overlap")
}
