package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/nas"
	"repro/internal/report"
)

// TestArmedFaultsNeverPublish is why no store policy asks whether fault
// injection is armed: the engine's one fault point, core.project, cannot
// leave a wrong artifact in a store. It fires after Prepare has filled the
// store, so in error#1 and panic#1 mode LU-MZ.C@16 hydra→power6-575 runs
// through a store of its own while the point is armed — failing or
// panicking — and then, disarmed, through that same store; its bytes must
// be those of a fresh store's run.
func TestArmedFaultsNeverPublish(t *testing.T) {
	project := func(st *core.Store) ([]byte, error) {
		pipe, app, err := core.Prepare(context.Background(), arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6),
			nas.LU, nas.ClassC, 16, core.Options{Store: st})
		if err != nil {
			return nil, err
		}
		proj, err := pipe.ProjectCtx(context.Background(), app, 16)
		if err != nil {
			return nil, err
		}
		return report.MarshalProjection(proj, nil)
	}
	faultinject.Disarm() // the reference runs clean, whatever ran before
	want, err := project(core.NewStore(core.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{"core.project"} {
		for _, mode := range []string{"error#1", "panic#1"} {
			spec := point + "=" + mode
			t.Run(spec, func(t *testing.T) {
				defer faultinject.Disarm()
				st := core.NewStore(core.StoreConfig{})
				if err := faultinject.Arm(spec); err != nil {
					t.Fatal(err)
				}
				armed := func() (err error) {
					defer func() {
						if v := recover(); v != nil {
							err = fmt.Errorf("panic: %v", v)
						}
					}()
					_, err = project(st)
					return err
				}()
				faultinject.Disarm()
				t.Logf("armed run: %v", armed)
				got, err := project(st)
				if err != nil {
					t.Fatalf("disarmed run after %s (armed run: %v): %v", spec, armed, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("after %s (armed run: %v) the store serves other bytes than a fresh one:\n got %s\nwant %s", spec, armed, got, want)
				}
			})
		}
	}
}
