package des

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSingleProcessAdvance(t *testing.T) {
	k := NewKernel()
	var end float64
	k.Spawn("p", func(p *Proc) {
		p.Advance(1.5)
		p.Advance(2.5)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Errorf("end time = %v, want 4", end)
	}
	if k.Now() != 4.0 {
		t.Errorf("kernel time = %v, want 4", k.Now())
	}
}

func TestNegativeAdvanceClamps(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Advance(-5)
		if p.Now() != 0 {
			t.Errorf("negative advance moved time to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	trace := func() string {
		k := NewKernel()
		var sb strings.Builder
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("p%d", i)
			step := float64(i + 1)
			k.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Advance(step)
					fmt.Fprintf(&sb, "%s@%v ", p.Name(), p.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := trace()
	for i := 0; i < 10; i++ {
		if got := trace(); got != first {
			t.Fatalf("nondeterministic interleaving:\n%s\nvs\n%s", first, got)
		}
	}
	// Spot-check ordering: at t=2 p1's event was scheduled (at t=0)
	// before p0's second (at t=1), so FIFO tie-break runs p1 first.
	if !strings.HasPrefix(first, "p0@1 p1@2 p0@2 ") {
		t.Errorf("unexpected order: %s", first)
	}
}

func TestSignalWakesWaiter(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("data")
	var woke float64
	k.Spawn("consumer", func(p *Proc) {
		p.WaitSignal(s)
		woke = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Advance(3)
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Errorf("consumer woke at %v, want 3", woke)
	}
}

func TestWaitOnFiredSignalReturnsImmediately(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("done")
	k.Spawn("p", func(p *Proc) {
		s.Fire()
		before := p.Now()
		p.WaitSignal(s)
		if p.Now() != before {
			t.Error("waiting on a fired signal must not advance time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("go")
	var woken int32
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.WaitSignal(s)
			atomic.AddInt32(&woken, 1)
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Advance(1)
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("s")
	k.Spawn("p", func(p *Proc) {
		s.Fire()
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Fired() {
		t.Error("signal must report fired")
	}
}

func TestScheduledEventFiresSignal(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("timer")
	var woke float64
	k.Spawn("p", func(p *Proc) {
		p.Kernel().FireAt(s, 2.5)
		p.WaitSignal(s)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 2.5 {
		t.Errorf("woke at %v, want 2.5", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("never")
	k.Spawn("stuck", func(p *Proc) {
		p.WaitSignal(s)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("deadlock must be reported")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never") {
		t.Errorf("deadlock report should name the process and its wait: %v", err)
	}
}

func TestPanicInProcessSurfaces(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) {
		p.Advance(1)
		panic("boom")
	})
	k.Spawn("bystander", func(p *Proc) {
		p.WaitSignal(p.Kernel().NewSignal("forever"))
	})
	err := k.Run()
	if err == nil || err.Error() != "des: process bad panicked: boom" {
		t.Fatalf("process panic must surface, got %v", err)
	}
}

func TestManyProcessesManyEvents(t *testing.T) {
	k := NewKernel()
	const n = 200
	var total float64
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Advance(0.001)
			}
			total += p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-n*0.05) > 1e-9 {
		t.Errorf("total = %v, want %v", total, n*0.05)
	}
}

func TestPingPongViaSignals(t *testing.T) {
	// Two processes alternating: a classic token pass with timing.
	k := NewKernel()
	const rounds = 10
	toB := make([]*Signal, rounds)
	toA := make([]*Signal, rounds)
	for i := range toB {
		toB[i] = k.NewSignal(fmt.Sprintf("toB%d", i))
		toA[i] = k.NewSignal(fmt.Sprintf("toA%d", i))
	}
	var endA, endB float64
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Advance(0.5)
			toB[i].Fire()
			p.WaitSignal(toA[i])
		}
		endA = p.Now()
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.WaitSignal(toB[i])
			p.Advance(0.5)
			toA[i].Fire()
		}
		endB = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if endA != rounds || endB != rounds {
		t.Errorf("ends = %v, %v; want %v", endA, endB, float64(rounds))
	}
}

// Property: the kernel clock equals the max of all process end times, for
// arbitrary per-process step counts.
func TestClockIsMaxOfProcesses(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) == 0 || len(steps) > 20 {
			return true
		}
		k := NewKernel()
		var max float64
		for i, s := range steps {
			n := int(s%20) + 1
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < n; j++ {
					p.Advance(0.25)
				}
			})
			if end := 0.25 * float64(n); end > max {
				max = end
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		return math.Abs(k.Now()-max) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunWithNoProcesses(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatalf("empty kernel must run cleanly: %v", err)
	}
	if k.Now() != 0 {
		t.Error("empty run must stay at t=0")
	}
}

func TestZeroAdvanceYieldsButKeepsTime(t *testing.T) {
	k := NewKernel()
	order := ""
	k.Spawn("a", func(p *Proc) {
		p.Advance(0)
		order += "a"
	})
	k.Spawn("b", func(p *Proc) {
		order += "b"
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// a yields on its zero advance, letting b (spawned later but not
	// yielding) run its body first.
	if order != "ba" {
		t.Errorf("order = %q, want ba", order)
	}
	if k.Now() != 0 {
		t.Error("zero advances must not move the clock")
	}
}

func TestAdvanceReturnsDirectlyWhenItsWakeIsNext(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		pushed := k.seq
		p.Advance(1.5) // empty queues
		k.FireAt(k.NewSignal("timer"), 2)
		p.Advance(1) // heap top strictly later
		if k.seq != pushed+1 || k.head != len(k.fifo) {
			t.Errorf("advances with nothing due first queued %d heap events and %d FIFO entries, want only the timer",
				k.seq-pushed, len(k.fifo)-k.head)
		}
		if p.Now() != 2.5 {
			t.Errorf("clock = %v, want 2.5", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 3.5 {
		t.Errorf("kernel time = %v, want 3.5 (the timer)", k.Now())
	}
}

func TestAdvanceYieldsToEventDueAtItsWakeTime(t *testing.T) {
	k := NewKernel()
	timer := k.NewSignal("timer")
	k.Spawn("p", func(p *Proc) {
		k.FireAt(timer, 1)
		p.Advance(1) // the timer was queued first: it fires first
		if !timer.Fired() {
			t.Error("advance returned before a timer queued earlier for the same time fired")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// drainFreeCoros stops every parked coroutine, so a test can tell exactly
// which ones its own kernels park.
func drainFreeCoros() {
	freeCoros.Lock()
	list := freeCoros.list
	freeCoros.list = nil
	freeCoros.Unlock()
	for _, c := range list {
		c.stop()
	}
}

func parkedCoros() int {
	freeCoros.Lock()
	defer freeCoros.Unlock()
	return len(freeCoros.list)
}

func TestTimeBackwardsAbandonsParkedProcesses(t *testing.T) {
	drainFreeCoros()
	k := NewKernel()
	unwound := false
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		p.Advance(10)
		t.Error("sleeper resumed after the kernel failed")
	})
	k.Spawn("vandal", func(p *Proc) {
		p.Advance(1)
		k.events[0].at = 0.5 // the sleeper's wake, now in the past
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "time went backwards") {
		t.Fatalf("corrupted queue must be reported, got %v", err)
	}
	if !unwound {
		t.Error("parked process was not unwound")
	}
	for p := k.procs; p != nil; p = p.next {
		if p.state != stateDone || p.co != nil {
			t.Errorf("%s left in state %d holding coroutine %p", p.Name(), p.state, p.co)
		}
	}
	if k.live != 0 {
		t.Errorf("live = %d after Run, want 0", k.live)
	}
	if got := parkedCoros(); got != 2 {
		t.Errorf("%d coroutines back on the free list, want both", got)
	}
}

// endings are the three ways a kernel's Run can end.
var endings = []struct {
	name    string
	spawn   func(k *Kernel)
	wantErr string
}{
	{"normally", func(k *Kernel) {
		s := k.NewSignal("go")
		k.Spawn("w", func(p *Proc) { p.WaitSignal(s) })
		k.Spawn("f", func(p *Proc) { p.Advance(1); s.Fire() })
	}, ""},
	{"by deadlock", func(k *Kernel) {
		k.Spawn("stuck", func(p *Proc) { p.WaitSignal(k.NewSignal("never")) })
		k.Spawn("slept", func(p *Proc) { p.Advance(1); p.WaitSignal(k.NewSignal("never")) })
	}, "des: deadlock"},
	{"by panic", func(k *Kernel) {
		k.Spawn("bystander", func(p *Proc) { p.WaitSignal(k.NewSignal("forever")) })
		k.Spawn("bad", func(p *Proc) { panic("boom") })
		k.Spawn("unstarted", func(p *Proc) { p.Advance(2) })
	}, "des: process bad panicked: boom"},
}

func runEnding(t *testing.T, i int) {
	t.Helper()
	runEndingOn(t, NewKernel(), i)
}

func runEndingOn(t *testing.T, k *Kernel, i int) {
	t.Helper()
	e := endings[i%len(endings)]
	e.spawn(k)
	err := k.Run()
	switch {
	case e.wantErr == "" && err != nil:
		t.Fatalf("kernel %d ending %s: %v", i, e.name, err)
	case e.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), e.wantErr)):
		t.Fatalf("kernel %d ending %s: got %v, want %s…", i, e.name, err, e.wantErr)
	}
}

func TestGoroutinesBoundedAcrossKernelLifecycles(t *testing.T) {
	before, parkedBefore := runtime.NumGoroutine(), parkedCoros()
	for i := 0; i < 2000; i++ {
		runEnding(t, i)
	}
	// One kernel wider than the free list: the surplus must be stopped,
	// not parked and not leaked.
	k := NewKernel()
	s := k.NewSignal("go")
	for i := 0; i < freeCoroCap+100; i++ {
		k.SpawnKind("w", i, func(p *Proc) { p.WaitSignal(s) })
	}
	k.Spawn("f", func(p *Proc) { s.Fire() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	after, parked := runtime.NumGoroutine(), parkedCoros()
	if parked != freeCoroCap {
		t.Errorf("%d coroutines parked after a %d-process kernel, want the cap %d", parked, freeCoroCap+100, freeCoroCap)
	}
	if after > before+freeCoroCap {
		t.Errorf("goroutines %d → %d, more than the free list's %d above the start", before, after, freeCoroCap)
	}
	if leaked := (after - parked) - (before - parkedBefore); leaked > 0 {
		t.Errorf("%d goroutines outside the free list outlived their kernels", leaked)
	}
}

func TestResetAfterEveryEnding(t *testing.T) {
	k := NewKernel()
	k.Reset() // legal on a fresh kernel
	for i := 0; i < 4*len(endings); i++ {
		runEndingOn(t, k, i)
		k.Reset()
		if k.Now() != 0 || k.live != 0 || k.procs != nil || len(k.events) != 0 || len(k.fifo) != 0 || k.failed != nil {
			t.Fatalf("after ending %s, Reset left now=%v live=%d procs=%p heap=%d fifo=%d failed=%v",
				endings[i%len(endings)].name, k.Now(), k.live, k.procs, len(k.events), len(k.fifo), k.failed)
		}
	}
	// Spawned but never run: Reset drops the processes without starting them.
	k.Spawn("unrun", func(p *Proc) { t.Error("a process dropped by Reset ran") })
	k.Reset()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalSize: every message writes a Signal and Release zeroes it, so a
// Signal that grows costs every message; the heap moves events, so an event
// that grows costs every push and pop. Adding the deferred fire's stamp as
// two plain fields made a Signal 96 bytes and, before signals were
// released, a cold projection allocate 5–15 % more memory.
func TestSignalSize(t *testing.T) {
	if n := unsafe.Sizeof(Signal{}); n > 64 {
		t.Errorf("Signal is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Errorf("event is %d bytes, want 32", n)
	}
}

// TestProcSize: a 64-rank IMB table spawns ~13 k processes, so a Proc that
// grows costs every one of them. Hold's step made room for itself by
// narrowing the name id, the state and the wait kind.
func TestProcSize(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 96 {
		t.Errorf("Proc is %d bytes, want at most 96", n)
	}
}

// stepFunc adapts a function to Stepper for tests.
type stepFunc func(p *Proc) bool

func (f stepFunc) Step(p *Proc) bool { return f(p) }

// TestPanicInAStepSurfaces: a step the kernel runs at a wake is not on the
// process's coroutine, yet its panic is Run's error naming the process, and
// the process and its bystander are unwound as after a body's panic.
func TestPanicInAStepSurfaces(t *testing.T) {
	k := NewKernel()
	unwound := 0
	k.Spawn("held", func(p *Proc) {
		defer func() { unwound++ }()
		calls := 0
		p.Hold(stepFunc(func(p *Proc) bool {
			if calls++; calls == 3 {
				panic("boom")
			}
			return p.Sleep(1)
		}))
		t.Error("the body resumed after its step panicked")
	})
	// The ticker's wakes share the held process's times, so its sleeps
	// never take the shortcut: the third step runs at a kernel wake.
	k.Spawn("ticker", func(p *Proc) {
		defer func() { unwound++ }()
		for i := 0; i < 5; i++ {
			p.Advance(1)
		}
	})
	k.Spawn("bystander", func(p *Proc) {
		defer func() { unwound++ }()
		p.WaitSignal(p.Kernel().NewSignal("forever"))
	})
	err := k.Run()
	if err == nil || err.Error() != "des: process held panicked: boom" {
		t.Fatalf("a step's panic must surface, got %v", err)
	}
	if unwound != 3 || k.live != 0 {
		t.Errorf("%d of 3 bodies unwound, %d processes live; want 3 and 0", unwound, k.live)
	}
}

// TestDeadlockWhileHeld: a held process stuck on an Await is reported by
// what it awaits, and abandoning it unwinds its body without running its
// step again.
func TestDeadlockWhileHeld(t *testing.T) {
	k := NewKernel()
	never := k.NewSignal("never")
	calls, unwound := 0, false
	k.Spawn("held", func(p *Proc) {
		defer func() { unwound = true }()
		p.Hold(stepFunc(func(p *Proc) bool {
			if calls++; calls == 1 && !p.Sleep(1) {
				return false
			}
			return p.Await(never)
		}))
	})
	k.Spawn("other", func(p *Proc) { p.Advance(1) }) // no shortcut for the held Sleep
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "held: waiting on signal:never") {
		t.Fatalf("deadlock must name the held process and its signal, got %v", err)
	}
	if calls != 2 || !unwound {
		t.Errorf("step ran %d times, body unwound %v; want 2 and true", calls, unwound)
	}
}

// TestWaiterListsAreRecycled: a fire hands its signal's waiter list back,
// the next crowd reuses it, and Reset reclaims lists that never fired.
func TestWaiterListsAreRecycled(t *testing.T) {
	k := NewKernel()
	crowd := func(s *Signal, n int, after float64) {
		for i := 0; i < n; i++ {
			k.SpawnKind("w", i, func(p *Proc) {
				p.Advance(after)
				p.WaitSignal(s)
			})
		}
	}
	first, second, third := k.NewSignal("first"), k.NewSignal("second"), k.NewSignal("third")
	crowd(first, 5, 0)
	crowd(second, 5, 0)
	crowd(third, 3, 1.5)
	k.Spawn("f", func(p *Proc) {
		p.Advance(1)
		first.Fire()
		if len(k.lists) != 2 || len(k.free) != 1 {
			t.Errorf("two crowds, one fired: %d lists, %d free; want 2, 1", len(k.lists), len(k.free))
		}
		p.Advance(1) // the third crowd waits at 1.5
		if len(k.lists) != 2 || len(k.free) != 0 {
			t.Errorf("a third crowd grew the lists: %d lists, %d free; want 2, 0", len(k.lists), len(k.free))
		}
		third.Fire()
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "second") {
		t.Fatalf("want a deadlock on second, got %v", err)
	}
	k.Reset()
	if len(k.free) != len(k.lists) {
		t.Errorf("Reset freed %d of %d waiter lists", len(k.free), len(k.lists))
	}
	for i, l := range k.lists {
		if len(l) != 0 {
			t.Errorf("list %d holds %d waiters after Reset", i, len(l))
		}
	}
}

func TestArenaKeepsChunksOnlyOnceRewound(t *testing.T) {
	var a Arena[Signal]
	for i := 0; i < 3*arenaChunk; i++ {
		a.New().fired = true
	}
	if len(a.chunks) != 0 {
		t.Fatalf("an arena that was never rewound kept %d chunks", len(a.chunks))
	}
	a.Rewind()
	first := a.New()
	first.fired = true
	for i := 1; i < 2*arenaChunk; i++ {
		a.New().fired = true
	}
	if len(a.chunks) != 2 {
		t.Fatalf("after a rewind the arena kept %d chunks of the 2 it carved", len(a.chunks))
	}
	a.Rewind()
	for i := 0; i < 2*arenaChunk; i++ {
		s := a.New()
		if i == 0 && s != first {
			t.Error("a rewound arena did not hand its first chunk out again")
		}
		if s.fired {
			t.Fatalf("record %d of a rewound arena was not zeroed", i)
		}
	}
	if len(a.chunks) != 2 {
		t.Errorf("re-carving kept chunks allocated: %d chunks, want 2", len(a.chunks))
	}
}

func TestArenaFreeHandsRecordsBack(t *testing.T) {
	var a Arena[Signal]
	a.Rewind() // keep chunks, so the second Rewind re-carves this one
	first, x, y := a.New(), a.New(), a.New()
	x.kind, x.fired = "x", true
	y.kind = "y"
	a.Free(x)
	a.Free(y)
	if *x != (Signal{}) || *y != (Signal{}) {
		t.Error("Free left a record's fields set")
	}
	if got := a.New(); got != y {
		t.Error("New did not hand out the last freed record first")
	}
	if got := a.New(); got != x || *got != (Signal{}) {
		t.Errorf("New handed out %p (%+v), want the freed record %p, zeroed", got, *got, x)
	}
	if got := a.New(); got == first || got == x || got == y {
		t.Error("New handed out a live record once the freed ones were used")
	}

	a.Free(x)
	a.Rewind()
	if len(a.dead) != 0 {
		t.Fatalf("Rewind kept %d freed records", len(a.dead))
	}
	if got := a.New(); got != first {
		t.Error("after Rewind, New did not re-carve the kept chunk from its start")
	}

	// Freeing as fast as New carves needs no chunk beyond the first.
	var b Arena[Signal]
	if n := testing.AllocsPerRun(1000, func() { b.Free(b.New()) }); n != 0 {
		t.Errorf("New after Free allocated %.0f times per pair, want 0", n)
	}
}

// TestArenaFreeGrowsByTheChunk pins the free list's growth: a run that
// frees n records, none handed out again in between, grows it at most once
// per arenaChunk of them — not once per doubling from one, which a
// one-shot world paid again in every run.
func TestArenaFreeGrowsByTheChunk(t *testing.T) {
	for _, n := range []int{1, arenaChunk, arenaChunk + 1, 10 * arenaChunk} {
		var a Arena[Signal]
		recs := make([]*Signal, n)
		for i := range recs {
			recs[i] = a.New()
		}
		grows, c := 0, cap(a.dead)
		for _, r := range recs {
			a.Free(r)
			if cap(a.dead) != c {
				grows, c = grows+1, cap(a.dead)
			}
		}
		if want := (n + arenaChunk - 1) / arenaChunk; grows > want {
			t.Errorf("freeing %d records grew the free list %d times, want at most %d", n, grows, want)
		}
	}
}

// TestReleaseRecyclesSignals: a signal released after its wait is the next
// one NewSignal hands out, zeroed, and a run that releases every signal it
// waits on carves no more than are in flight.
func TestReleaseRecyclesSignals(t *testing.T) {
	k := NewKernel()
	var got []*Signal
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 3*arenaChunk; i++ {
			s := k.NewSignalKind("t", i)
			got = append(got, s)
			k.FireAt(s, 1)
			if i%2 == 1 {
				p.Advance(2) // the fire has passed: a stamp, no event
			}
			p.WaitSignal(s)
			k.Release(s)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("signal %d is a new record, want the released one", i)
		}
	}
	if k.Now() != 3*arenaChunk*1.5 {
		t.Errorf("run ended at %v, want %v", k.Now(), 3*arenaChunk*1.5)
	}
}

func TestReleasePanicsOnALiveSignal(t *testing.T) {
	release := func(k *Kernel, s *Signal) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		k.Release(s)
		return ""
	}
	k := NewKernel()
	if msg := release(k, k.NewSignal("unfired")); !strings.Contains(msg, "unfired") {
		t.Errorf("Release of an unfired signal: %q, want a panic naming it", msg)
	}
	stamped := k.NewSignal("stamped")
	k.FireAt(stamped, 1)
	if msg := release(k, stamped); !strings.Contains(msg, "stamped") {
		t.Errorf("Release of a signal whose fire is still due: %q, want a panic", msg)
	}
	if msg := release(NewKernel(), k.NewSignal("foreign")); !strings.Contains(msg, "foreign") {
		t.Errorf("Release on another kernel: %q, want a panic", msg)
	}

	// Waited on: inline, and on a waiter list.
	for _, waiters := range []int{1, 3} {
		k := NewKernel()
		s := k.NewSignal("waited")
		for i := 0; i < waiters; i++ {
			k.SpawnKind("w", i, func(p *Proc) { p.WaitSignal(s) })
		}
		var msg string
		k.Spawn("r", func(p *Proc) {
			s.fired = true // as if fired, with the waiters not yet woken
			msg = release(k, s)
			s.fired = false
			s.Fire()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(msg, "waited") {
			t.Errorf("Release of a signal with %d waiters: %q, want a panic", waiters, msg)
		}
	}

	// Fired and woken: released, and its storage is the next signal's.
	k = NewKernel()
	s := k.NewSignal("done")
	s.Fire()
	if msg := release(k, s); msg != "" {
		t.Fatalf("Release of a fired signal panicked: %s", msg)
	}
	if next := k.NewSignal("next"); next != s || next.Fired() {
		t.Error("the released signal was not handed out next, unfired")
	}
}

func TestCoroutineReusedAfterUnwinding(t *testing.T) {
	for _, first := range []int{1, 2} { // deadlock (aborted body), panic
		drainFreeCoros()
		runEnding(t, first)
		freeCoros.Lock()
		parked := append([]*coro(nil), freeCoros.list...)
		freeCoros.Unlock()
		if len(parked) == 0 {
			t.Fatalf("ending %s parked no coroutine", endings[first].name)
		}

		// The next kernel must pick those same coroutines up and run
		// clean bodies on them, blocking and all.
		k := NewKernel()
		s := k.NewSignal("go")
		var ran []*coro
		var end float64
		for i := range parked {
			k.SpawnKind("next", i, func(p *Proc) {
				ran = append(ran, p.co)
				p.WaitSignal(s)
				p.Advance(1)
				end = p.Now()
			})
		}
		k.Spawn("f", func(p *Proc) { p.Advance(2); s.Fire() })
		if err := k.Run(); err != nil {
			t.Fatalf("after ending %s: %v", endings[first].name, err)
		}
		if end != 3 {
			t.Errorf("after ending %s: reused coroutines finished at %v, want 3", endings[first].name, end)
		}
		for _, c := range ran {
			if !slices.Contains(parked, c) {
				t.Errorf("after ending %s: a process ran on a fresh coroutine with %d parked", endings[first].name, len(parked))
			}
		}
	}
}

func TestKernelsShareFreeListConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := NewKernel()
				var total float64
				for r := 0; r < 16; r++ {
					k.SpawnKind("p", r, func(p *Proc) {
						for j := 0; j < 4; j++ {
							p.Advance(0.25)
						}
						total += p.Now()
					})
				}
				if err := k.Run(); err != nil || total != 16 {
					t.Errorf("concurrent kernel: total %v, err %v", total, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// NewSignal creates a named, unfired signal owned by the kernel.
func (k *Kernel) NewSignal(name string) *Signal { return k.newSignal(name, -1) }

// Kernel returns the owning kernel (for scheduling timed events).
func (p *Proc) Kernel() *Kernel { return p.k }
