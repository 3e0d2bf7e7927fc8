package server

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errBreakerOpen fails a peer call fast, with no network traffic, while
// that peer's breaker is open.
var errBreakerOpen = errors.New("server: circuit breaker open")

// breaker is a consecutive-failure circuit breaker around the calls to one
// peer. Closed, it passes everything and counts consecutive failures; at
// threshold it opens and rejects for cooldown; after cooldown it half-opens
// and lets exactly one probe through — the probe's outcome re-closes or
// re-opens the circuit. The caller's own cancellation or deadline is
// neutral: it says nothing about the peer.
//
// A nil *breaker is a disabled breaker: allow always passes, record is a
// no-op.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive, while closed
	openedAt time.Time // while open
	probing  bool      // while half-open: a probe is in flight
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// newBreaker builds a breaker tripping after threshold consecutive
// failures, rejecting for cooldown before each probe. now is injectable
// for tests.
func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a call may proceed. The transition open→half-open
// happens here: the first allow after the cooldown becomes the probe.
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Before(b.openedAt.Add(b.cooldown)) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports one call's outcome. A neutral error (the caller's
// cancellation or deadline) releases a probe without a verdict; success
// closes the circuit; a real failure counts toward the threshold and
// re-opens a half-open circuit immediately.
func (b *breaker) record(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case err == nil:
		b.state = breakerClosed
		b.failures = 0
		b.probing = false
	case neutralErr(err):
		b.probing = false
	default:
		b.probing = false
		b.failures++
		if b.state == breakerHalfOpen || b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.failures = 0
		}
	}
}

// neutralErr reports whether a call's error is the caller's own giving up,
// which says nothing about the peer and must not move its breaker.
func neutralErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
