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

// TestFailedProjectionNeverPublishes is why no store policy asks whether a
// projection failed: one that fails after Prepare has filled the store
// cannot leave a wrong artifact in it. LU-MZ.C@16 hydra→power6-575 runs
// through a store of its own with an OnGAProgress that cancels the
// request's context or panics mid-search, and then, cleanly, through that
// same store; its bytes must be those of a fresh store's run.
func TestFailedProjectionNeverPublishes(t *testing.T) {
	project := func(ctx context.Context, st *core.Store, progress func(member, gen int, best float64)) ([]byte, error) {
		pipe, app, err := core.Prepare(ctx, arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6),
			nas.LU, nas.ClassC, 16, core.Options{Store: st, OnGAProgress: progress})
		if err != nil {
			return nil, err
		}
		proj, err := pipe.ProjectCtx(ctx, app, 16)
		if err != nil {
			return nil, err
		}
		return report.MarshalProjection(proj, nil)
	}
	want, err := project(context.Background(), core.NewStore(core.StoreConfig{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fail func(cancel context.CancelFunc)
	}{
		{"cancel", func(cancel context.CancelFunc) { cancel() }},
		{"panic", func(context.CancelFunc) { panic("progress observer dies") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := core.NewStore(core.StoreConfig{})
			failed := func() (err error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panic: %v", v)
					}
				}()
				_, err = project(ctx, st, func(member, gen int, best float64) { tc.fail(cancel) })
				return err
			}()
			if failed == nil {
				t.Fatal("the failing run succeeded")
			}
			t.Logf("failed run: %v", failed)
			got, err := project(context.Background(), st, nil)
			if err != nil {
				t.Fatalf("clean run after a failed one (%v): %v", failed, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("after a failed run (%v) the store serves other bytes than a fresh one:\n got %s\nwant %s", failed, got, want)
			}
		})
	}
}
