package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(3, 10*time.Second, clk.now)
	boom := errors.New("pipeline broken")

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("breaker open after %d failures, threshold 3", i)
		}
		b.record(boom)
	}
	// A success resets the consecutive count.
	b.record(nil)
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("breaker open after reset + %d failures", i)
		}
		b.record(boom)
	}
	if b.allow() {
		t.Fatal("breaker still closed after 3 consecutive failures")
	}
	clk.advance(9 * time.Second)
	if b.allow() {
		t.Fatal("breaker admitted a call inside its 10s cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(1, 10*time.Second, clk.now)
	b.record(errors.New("boom"))
	if b.allow() {
		t.Fatal("threshold-1 breaker did not open on first failure")
	}

	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("cooldown passed: first allow must become the probe")
	}
	// While the probe is in flight everyone else is rejected.
	if b.allow() {
		t.Fatal("second caller admitted during the probe")
	}
	// A failed probe re-opens immediately for a full cooldown.
	b.record(errors.New("still broken"))
	if b.allow() {
		t.Fatal("breaker closed after failed probe")
	}

	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("second probe not admitted")
	}
	b.record(nil)
	// Healthy again: everyone passes.
	for i := 0; i < 5; i++ {
		if !b.allow() {
			t.Fatal("breaker not closed after successful probe")
		}
	}
}

func TestBreakerNeutralErrors(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(1, 10*time.Second, clk.now)
	// The caller's cancellation or deadline never trips.
	for _, err := range []error{context.Canceled, context.DeadlineExceeded} {
		b.record(err)
		if !b.allow() {
			t.Fatalf("neutral error %v tripped the breaker", err)
		}
	}
	// A neutral probe outcome releases the probe slot without a verdict.
	b.record(errors.New("boom"))
	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("probe not admitted")
	}
	b.record(context.Canceled)
	if !b.allow() {
		t.Fatal("cancelled probe must free the probe slot for the next caller")
	}
}

func TestNilBreakerIsDisabled(t *testing.T) {
	var b *breaker
	for i := 0; i < 10; i++ {
		b.record(errors.New("boom"))
		if !b.allow() {
			t.Fatal("nil breaker rejected a request")
		}
	}
}
