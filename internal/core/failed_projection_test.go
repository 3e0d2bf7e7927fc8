package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/nas"
	"repro/internal/report"
)

// failingCtx is a context whose Err, from its failAt-th call on, reports
// what fail returns — or panics, if fail does. A projection at Workers 1
// asks Err once on entry and once before each GA ensemble member, so
// failAt 3 fails it after member 0 has run and before member 1 starts.
type failingCtx struct {
	context.Context
	calls, failAt int
	fail          func() error
}

func (c *failingCtx) Err() error {
	if c.calls++; c.calls >= c.failAt {
		return c.fail()
	}
	return nil
}

// TestFailedProjectionNeverPublishes is why no store policy asks whether a
// projection failed: one that fails after Prepare has filled the store
// cannot leave a wrong artifact in it. LU-MZ.C@16 hydra→power6-575 is
// prepared through a store of its own, then projected at Workers 1 under a
// context that cancels or panics between two GA members; then, cleanly,
// through that same store. Its bytes must be those of a fresh store's run.
func TestFailedProjectionNeverPublishes(t *testing.T) {
	project := func(ctx context.Context, st *core.Store) ([]byte, error) {
		pipe, app, err := core.Prepare(context.Background(), arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6),
			nas.LU, nas.ClassC, 16, core.Options{Store: st})
		if err != nil {
			return nil, err
		}
		pipe.Workers = 1
		proj, err := pipe.ProjectCtx(ctx, app, 16)
		if err != nil {
			return nil, err
		}
		return report.MarshalProjection(proj, nil)
	}
	want, err := project(context.Background(), core.NewStore(core.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fail func() error
	}{
		{"cancel", func() error { return context.Canceled }},
		{"panic", func() error { panic("context dies between GA members") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := core.NewStore(core.StoreConfig{})
			ctx := &failingCtx{Context: context.Background(), failAt: 3, fail: tc.fail}
			failed := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panic: %v", v)
					}
				}()
				_, err = project(ctx, st)
				return err
			}()
			if failed == nil {
				t.Fatal("the failing run succeeded")
			}
			if ctx.calls != ctx.failAt {
				t.Fatalf("the failing run asked its context %d times, want it to stop at call %d", ctx.calls, ctx.failAt)
			}
			t.Logf("failed run: %v", failed)
			got, err := project(context.Background(), st)
			if err != nil {
				t.Fatalf("clean run after a failed one (%v): %v", failed, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("after a failed run (%v) the store serves other bytes than a fresh one:\n got %s\nwant %s", failed, got, want)
			}
		})
	}
}
