// Package faultinject provides named fault-injection points for chaos
// testing the swappd service. A point sits only where the world can fail
// — the WAL's writes, syncs and reads (durable.wal.append, .sync,
// .replay) and the evaluation a server runs for a request (server.eval)
// — or where a standing contract has no other way to be tested
// (core.project: a validation whose projection fails). Pure code, such as
// the GA search or the data decoders, carries none: its failures are bugs
// or bad input, and tests feed it bad input directly. A test or an
// operator arms specific points with a spec string and the next passes
// through those points misbehave on purpose.
//
// Disabled cost: a single atomic load per call. The package ships armed
// in no binaries by default — swappd arms it only from an explicit
// -faults flag or the SWAPP_FAULTS environment variable.
//
// Spec grammar (comma- or semicolon-separated):
//
//	point=mode[:arg][#count]
//
//	server.eval=panic#1                panic on the first pass only
//	durable.wal.sync=error             fail every pass with an injected error
//	core.project=delay:150ms           sleep 150ms per pass
//
// Modes:
//
//	panic        Fire panics with a recognizable "faultinject:" value
//	error        Fire returns an *InjectedError
//	delay:DUR    Fire sleeps DUR, then returns nil
//	shortwrite:N FireIO reports a partial-write fault: the call site must
//	             write only the first N bytes, then fail (a torn frame —
//	             what a crash mid-write leaves behind)
//	enospc       FireIO reports a disk-full fault: the call site fails
//	             without writing anything
//	corrupt      FireIO reports a bit-flip fault: the call site writes the
//	             full payload with one bit flipped (silent media
//	             corruption — the write "succeeds")
//
// The I/O modes fire only through FireIO — Fire ignores them without
// consuming their count, so a WAL write path can call Fire (classic
// faults) and FireIO (I/O shapes) back-to-back on the same point.
//
// A trailing #N fires the fault on the first N passes through the point,
// then the point behaves normally; omitted means every pass. Armed points
// that production code never visits are harmless.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is one injection behaviour.
type Mode string

const (
	ModePanic Mode = "panic"
	ModeError Mode = "error"
	ModeDelay Mode = "delay"
	// I/O-shaped modes, reported through FireIO.
	ModeShortWrite Mode = "shortwrite"
	ModeENOSPC     Mode = "enospc"
	ModeCorrupt    Mode = "corrupt"
)

// isIO reports whether a mode fires through FireIO rather than Fire.
func isIO(m Mode) bool {
	return m == ModeShortWrite || m == ModeENOSPC || m == ModeCorrupt
}

// InjectedError marks an error as deliberately injected, so chaos tests
// can assert it surfaced (and real error handling can ignore that it is
// synthetic — it travels like any other failure).
type InjectedError struct {
	Point string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s", e.Point)
}

// plan is one armed point.
type plan struct {
	mode  Mode
	delay time.Duration
	// n is the shortwrite byte budget.
	n int
	// remaining is the number of passes left to fire on; negative means
	// unlimited.
	remaining atomic.Int64
}

// take consumes one firing, reporting whether this pass fires.
func (p *plan) take() bool {
	for {
		r := p.remaining.Load()
		if r < 0 {
			return true
		}
		if r == 0 {
			return false
		}
		if p.remaining.CompareAndSwap(r, r-1) {
			return true
		}
	}
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	plans   map[string]*plan
)

// Arm parses spec and arms its points, replacing any previous arming. An
// empty spec is a no-op (the package stays disarmed).
func Arm(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	next := map[string]*plan{}
	for _, field := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		point, rhs, ok := strings.Cut(field, "=")
		if !ok || point == "" || rhs == "" {
			return fmt.Errorf("faultinject: bad entry %q (want point=mode[:arg][#count])", field)
		}
		rhs, countStr, hasCount := cutLast(rhs, '#')
		p := &plan{}
		p.remaining.Store(-1)
		if hasCount {
			n, err := strconv.Atoi(countStr)
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: bad count in %q", field)
			}
			p.remaining.Store(int64(n))
		}
		modeStr, arg, _ := strings.Cut(rhs, ":")
		switch Mode(modeStr) {
		case ModePanic, ModeError, ModeENOSPC, ModeCorrupt:
			if arg != "" {
				return fmt.Errorf("faultinject: mode %s takes no argument (%q)", modeStr, field)
			}
			p.mode = Mode(modeStr)
		case ModeDelay:
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return fmt.Errorf("faultinject: bad delay in %q", field)
			}
			p.mode = ModeDelay
			p.delay = d
		case ModeShortWrite:
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return fmt.Errorf("faultinject: bad shortwrite byte count in %q", field)
			}
			p.mode = ModeShortWrite
			p.n = n
		default:
			return fmt.Errorf("faultinject: unknown mode %q in %q", modeStr, field)
		}
		next[point] = p
	}
	mu.Lock()
	plans = next
	mu.Unlock()
	enabled.Store(len(next) > 0)
	return nil
}

// cutLast splits s at the last occurrence of sep.
func cutLast(s string, sep byte) (before, after string, found bool) {
	if i := strings.LastIndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// Disarm removes every armed point.
func Disarm() {
	mu.Lock()
	plans = nil
	mu.Unlock()
	enabled.Store(false)
}

// Enabled reports whether any point is armed.
func Enabled() bool { return enabled.Load() }

// Points lists the armed point names, sorted (for operator logs).
func Points() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(plans))
	for p := range plans {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// lookup fetches the armed plan for a point.
func lookup(point string) *plan {
	mu.Lock()
	defer mu.Unlock()
	return plans[point]
}

// Fire is the panic/error/delay injection point. With nothing armed it
// costs one atomic load and returns nil. With point armed it panics,
// returns an *InjectedError, or sleeps according to the plan.
func Fire(point string) error {
	if !enabled.Load() {
		return nil
	}
	p := lookup(point)
	if p == nil || isIO(p.mode) || !p.take() {
		return nil
	}
	switch p.mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", point))
	case ModeDelay:
		time.Sleep(p.delay)
		return nil
	default:
		return &InjectedError{Point: point}
	}
}

// IOFault describes one injected I/O misbehaviour returned by FireIO.
// The call site interprets it: ModeShortWrite means "persist only the
// first N payload bytes, then fail the write", ModeENOSPC means "fail
// without persisting anything", ModeCorrupt means "persist the full
// payload with a bit flipped and report success".
type IOFault struct {
	Point string
	Mode  Mode
	// N is the shortwrite byte budget (bytes that reach the disk before
	// the cord is pulled).
	N int
}

func (f *IOFault) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s", f.Mode, f.Point)
}

// FireIO is the injection point for I/O-shaped faults (shortwrite,
// enospc, corrupt). With nothing armed it costs one atomic load and
// returns nil; classic modes armed on the same point are ignored here
// without consuming their count (they belong to Fire).
func FireIO(point string) *IOFault {
	if !enabled.Load() {
		return nil
	}
	p := lookup(point)
	if p == nil || !isIO(p.mode) || !p.take() {
		return nil
	}
	return &IOFault{Point: point, Mode: p.mode, N: p.n}
}
