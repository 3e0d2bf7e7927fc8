package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsFree(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("Enabled after Disarm")
	}
	if err := Fire("anything"); err != nil {
		t.Errorf("disarmed Fire = %v", err)
	}
}

func TestArmEmptySpecIsNoop(t *testing.T) {
	Disarm()
	if err := Arm("  "); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("empty spec must leave the package disarmed")
	}
}

func TestArmParseErrors(t *testing.T) {
	defer Disarm()
	for _, spec := range []string{
		"nomode",              // missing =
		"p=",                  // empty mode
		"=panic",              // empty point
		"p=explode",           // unknown mode
		"p=drop#1",            // no data-degrading mode: degraded data is supplied as data
		"p=panic:arg",         // panic takes no argument
		"p=delay:nonsense",    // bad duration
		"p=delay:-5ms",        // negative delay
		"p=panic#0",           // count must be >= 1
		"p=panic#x",           // non-numeric count
		"ok=panic,bad=explde", // second entry bad
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted, want error", spec)
		}
	}
}

func TestPanicMode(t *testing.T) {
	defer Disarm()
	if err := Arm("server.eval=panic#1"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Error("armed panic point did not panic")
			} else if !strings.Contains(v.(string), "server.eval") {
				t.Errorf("panic value %q does not name the point", v)
			}
		}()
		Fire("server.eval")
	}()
	// #1: the second pass is clean.
	if err := Fire("server.eval"); err != nil {
		t.Errorf("exhausted point fired again: %v", err)
	}
	// Unarmed points never fire.
	if err := Fire("other.point"); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
}

func TestErrorMode(t *testing.T) {
	defer Disarm()
	if err := Arm("server.eval=error"); err != nil {
		t.Fatal(err)
	}
	err := Fire("server.eval")
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != "server.eval" {
		t.Fatalf("Fire = %v, want *InjectedError at server.eval", err)
	}
	// Unlimited: keeps firing.
	if Fire("server.eval") == nil {
		t.Error("unlimited point stopped firing")
	}
}

func TestDelayMode(t *testing.T) {
	defer Disarm()
	if err := Arm("core.project=delay:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Fire("core.project"); err != nil {
		t.Fatalf("delay mode returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delay fired after %v, want >= 30ms", d)
	}
}

func TestMultiPointSpecAndPoints(t *testing.T) {
	defer Disarm()
	if err := Arm("b=panic#1; a=error , c=delay:1ms"); err != nil {
		t.Fatal(err)
	}
	got := Points()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Points() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Points() = %v, want %v", got, want)
		}
	}
}

func TestCountedFiringIsRaceFree(t *testing.T) {
	defer Disarm()
	if err := Arm("hot=error#100"); err != nil {
		t.Fatal(err)
	}
	var fired int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Fire("hot") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 100 {
		t.Errorf("counted point fired %d times under contention, want exactly 100", fired)
	}
}

func TestRearmReplaces(t *testing.T) {
	defer Disarm()
	if err := Arm("a=error"); err != nil {
		t.Fatal(err)
	}
	if err := Arm("b=error"); err != nil {
		t.Fatal(err)
	}
	if Fire("a") != nil {
		t.Error("re-arming must drop previously armed points")
	}
	if Fire("b") == nil {
		t.Error("newly armed point must fire")
	}
}
