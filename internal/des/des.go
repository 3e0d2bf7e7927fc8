// Package des is a process-oriented discrete-event simulation kernel: the
// substrate under the MPI simulator. Each simulated process (an MPI rank)
// runs on a runtime coroutine (iter.Pull) that the kernel resumes and the
// process yields from: a hand-off is a direct coroutine switch on the
// caller's thread, never a trip through Go's scheduler. The kernel runs
// exactly one process at a time and orders all wakeups by (virtual time,
// sequence), so simulations are fully deterministic at any GOMAXPROCS.
//
// The programming model is the classic coroutine style: a process calls
// Advance to burn virtual time (compute), and WaitSignal to block until
// another process or a scheduled event fires a Signal (communication). The
// kernel detects global deadlock — an empty event queue with processes
// still blocked — and reports who was stuck.
//
// A process can also hand the kernel the work it would do between waits,
// as a Stepper: Hold runs the step at each of the process's wakes in place
// of resuming its body, on the kernel's stack, and switches back only at
// the wake the step reports done. Inside a step, Sleep and Await are
// Advance and WaitSignal without the park — each reports whether the wait
// is over or has queued its wake — and Advance and WaitSignal are Sleep
// and Await plus the park, so each rule has one implementation. A wake
// that runs a step is a function call instead of two coroutine switches;
// it does what the body would have done at that wake, under the same clock
// and tie-break, so no order moves. The mpi package makes a rank's queued
// posts, and waits on them, this way.
//
// Processes are short-lived and many (a 64-rank IMB table spawns ~13 k), so
// coroutines outlive them: one that finishes a body parks on a bounded
// package-level free list and the next process to start, in any kernel,
// takes it. See coro.
//
// The kernel is a hot path: one NAS characterisation or IMB sweep pushes
// tens of millions of events through it, so the event loop is built not to
// allocate and not to queue what nobody waits on. Events are four-word
// values in a hand-rolled binary heap (no container/heap interface boxing,
// no per-event pointers), and whatever is queued for the current time skips
// the heap for a FIFO (see Kernel). A timed fire of a signal nobody waits
// on yet — a send's completion, fired long before its rank's Waitall gets
// to it — skips the heap too: FireAt stamps its (time, seq) on the signal,
// and the heap sees it only if a process waits before that time (see
// Signal). The two event kinds — wake a process, fire a signal — are
// struct fields, not closures; signals and processes are carved from
// kernel-owned arenas with lazily formatted names; and a process's blocked
// reason is kept as typed fields that are only rendered if a deadlock
// report actually needs them.
//
// A kernel is single-owner: one goroutine builds it, runs it and, if it
// has more simulations to run, calls Reset and starts over on the same
// memory — the cheap way to run hundreds of small simulations back to back
// (an IMB table is ~300). Reset kills everything the kernel handed out:
// every Proc and Signal from before it is storage about to be handed out
// again, and using one is a bug nothing detects. Release does the same for
// one signal at a time, mid-run. A kernel that is never Reset keeps no
// memory it is done with — its arenas retain chunks only from the first
// Reset on; Arena says why.
package des

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"

	"repro/internal/units"
)

// due is what an event does when its time comes. Exactly one field is set:
// wake proc or fire sig — data, not a closure, so queueing one allocates
// nothing.
type due struct {
	proc *Proc
	sig  *Signal
}

// event is a due scheduled for a time later than the one it took its seq
// at. Four words: the heap moves these around, so size is speed.
type event struct {
	at  units.Seconds
	seq uint64 // tie-break: push (or FireAt stamp) order within equal timestamps
	due
}

// before orders events by (at, seq); seq is unique, so this is total.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// procState tracks where a process is in its lifecycle.
type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// waitKind is why a blocked process is parked, kept as data so the hot
// path never formats a reason string; see Proc.waitReason.
type waitKind uint8

const (
	waitStart waitKind = iota
	waitAdvance
	waitSignal
)

// Kernel owns the virtual clock, the event queues and the processes.
//
// Pending work sits in two queues that together are one (at, seq) order.
// Anything pushed for the current time — every Signal.Fire wake, every
// spawn, a zero-delay FireAt: about a quarter of all pushes — goes on a
// FIFO and never pays for the heap; the rest goes on the heap. At any
// moment every heap event due now took its seq at an earlier time (pushed
// then, or stamped then and pushed by a later wait), so it precedes every
// FIFO entry: Run takes the heap's events due now first, then the FIFO in
// push order, then advances the clock.
//
// A third kind of pending work sits on no queue: a timed fire stamped on a
// signal nobody waits on (FireAt). It takes its seq when it is stamped, as
// a push would, so order is unchanged when a wait later pushes it and
// clears the stamp. Until then it only has to answer "has it fired yet?",
// which is whether its (at, seq) is behind the work running now (see
// passed). Firing a signal nobody waits on changes nothing but that
// answer, so an unwaited stamp never needs to run at all — only the clock
// must still reach it, which Run sees to when the queues drain.
type Kernel struct {
	now    units.Seconds
	seq    uint64
	cur    uint64        // seq of the heap event running now; 0 while FIFO or Advance-shortcut work runs
	last   units.Seconds // latest time any timed fire was due: where Run ends at the earliest
	events []event       // binary min-heap on (at, seq): events due after the time they took their seq at
	fifo   []due         // pushed for the current time, in push order, from head on
	head   int
	procs  []*Proc
	live   int
	failed error

	// Signals and Procs are carved from kernel-owned arenas; Reset rewinds
	// them. Waiters beyond a signal's first go on a list from lists, which
	// Fire and Reset hand back to free: a collective's 64 waiters reuse
	// the last one's storage instead of growing their own.
	sigs    Arena[Signal]
	procMem Arena[Proc]
	lists   [][]*Proc
	free    []uint32 // indexes+1 of the lists no signal holds

	// abandoning tells a process resumed by abandonBlocked to unwind
	// instead of carrying on; see Proc.block.
	abandoning bool
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Reset returns the kernel to the state NewKernel left it in — time zero,
// no processes, no signals, nothing queued — keeping its memory. It may be
// called once Run has returned, however it ended, by the one goroutine that
// owns the kernel. Every Proc and Signal the kernel handed out before is
// dead: their storage is handed out again.
func (k *Kernel) Reset() {
	clear(k.events)
	clear(k.fifo)
	clear(k.procs)
	k.events, k.fifo, k.procs = k.events[:0], k.fifo[:0], k.procs[:0]
	k.now, k.seq, k.cur, k.last = 0, 0, 0, 0
	k.head, k.live, k.failed, k.abandoning = 0, 0, nil, false
	k.free = k.free[:0]
	for i := range k.lists {
		clear(k.lists[i])
		k.lists[i] = k.lists[i][:0]
		k.free = append(k.free, uint32(i+1))
	}
	k.sigs.Rewind()
	k.procMem.Rewind()
}

// Now returns the current virtual time.
func (k *Kernel) Now() units.Seconds { return k.now }

// passed reports whether work due at (at, seq) comes before the work
// running now: it is earlier, or due now and ahead of the running heap
// event. Work run from the FIFO or by an Advance shortcut comes after
// everything due at or before now (cur is 0).
func (k *Kernel) passed(at units.Seconds, seq uint64) bool {
	return at < k.now || at == k.now && (k.cur == 0 || seq < k.cur)
}

// push queues d for time at ≥ now: on the FIFO when that is the current
// time, on the heap otherwise.
func (k *Kernel) push(at units.Seconds, d due) {
	if at == k.now {
		k.fifo = append(k.fifo, d)
		return
	}
	k.seq++
	k.heapPush(event{at: at, seq: k.seq, due: d})
}

// heapPush adds e to the heap, sifting the hole it opens up to where e
// fits.
func (k *Kernel) heapPush(e event) {
	q := append(k.events, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	k.events = q
}

// pop removes and returns the earliest heap event, sifting the hole it
// leaves down to where the last event fits: one copy per level, not a swap.
func (k *Kernel) pop() event {
	q := k.events
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // clear pointers for the GC
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	k.events = q
	return top
}

// FireAt fires s at now+delay (clamped to now). A later fire of a signal
// nobody waits on yet is stamped on the signal instead of queued: it takes
// its seq now, as a push would, and enters the heap only if a process
// waits for it first (WaitSignal). Of several such fires the earliest is
// the one that fires s; the others would change nothing but the clock.
func (k *Kernel) FireAt(s *Signal, delay units.Seconds) {
	at := k.now + max(delay, 0)
	if at == k.now {
		k.fifo = append(k.fifo, due{sig: s})
		return
	}
	k.seq++
	k.last = max(k.last, at)
	switch {
	case s.w0 != nil:
		k.heapPush(event{at: at, seq: k.seq, due: due{sig: s}})
	case !s.fired && (s.seq == 0 || at < s.at):
		s.at, s.seq = at, k.seq
	}
}

// Proc is the handle a simulated process uses to interact with the kernel.
// It is kept to at most 96 bytes (TestProcSize): a 64-rank IMB table
// spawns ~13 k.
type Proc struct {
	k    *Kernel
	kind string
	fn   func(*Proc)
	co   *coro   // the coroutine running fn: set at first wake, nil once done
	step Stepper // what the kernel runs at this process's wakes while it holds; see Hold

	nameID int32 // -1: kind IS the full name; else rendered as kind+nameID
	state  procState

	// Blocked-reason data, rendered only by deadlock reports.
	waitKind waitKind
	waitDt   units.Seconds
	waitSig  *Signal
}

// Name returns the process's spawn name, formatting it on first use.
func (p *Proc) Name() string {
	if p.nameID < 0 {
		return p.kind
	}
	return fmt.Sprintf("%s%d", p.kind, p.nameID)
}

// ID returns the id SpawnKind was given, or -1 for a process Spawn named.
func (p *Proc) ID() int { return int(p.nameID) }

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.k.now }

// waitReason renders what the process is blocked on, for deadlock reports.
func (p *Proc) waitReason() string {
	switch p.waitKind {
	case waitAdvance:
		return fmt.Sprintf("advance(%s)", units.FormatSeconds(p.waitDt))
	case waitSignal:
		return "signal:" + p.waitSig.Name()
	default:
		return "start"
	}
}

// errAborted is the panic payload used to unwind abandoned processes.
type errAborted struct{}

// block parks the process until the kernel resumes it. Whatever queued
// the wake (Sleep, Await) has set the blocked reason.
func (p *Proc) block() {
	p.state = stateBlocked
	p.co.yield(struct{}{})
	if p.k.abandoning {
		panic(errAborted{})
	}
	p.state = stateRunning
	p.waitSig = nil
}

// Advance burns dt of virtual time as local work (compute). Negative dt is
// clamped to zero; a zero advance still yields to events already queued for
// the current time, in deterministic order. It is Sleep, parking the
// process where Sleep would report false.
func (p *Proc) Advance(dt units.Seconds) { p.sleep(dt, true) }

// WaitSignal blocks until s fires. If s already fired it returns
// immediately without yielding. It is Await, parking the process where
// Await would report false.
func (p *Proc) WaitSignal(s *Signal) { p.await(s, true) }

// Sleep is Advance for code that must not park: it reports true if dt has
// already passed, and otherwise queues the process's wake for when it has
// and reports false. Outside a Stepper, call Advance.
//
// When nothing is queued at or before now+dt — the FIFO is empty and the
// heap's top is later — this process's own wake would be the very next
// thing run, so Sleep moves the clock and reports true without pushing,
// popping or switching. The comparison is strict: an event queued at
// exactly now+dt was pushed earlier, holds a smaller seq and must run
// first, so that case queues the wake and (time, seq) order is exactly
// what it would be without the shortcut.
func (p *Proc) Sleep(dt units.Seconds) bool { return p.sleep(dt, false) }

// Await is WaitSignal for code that must not park: it reports true if s
// has fired, and otherwise queues the process's wake for when s fires and
// reports false. A timed fire stamped on s enters the heap here, under the
// seq FireAt gave it. Outside a Stepper, call WaitSignal.
func (p *Proc) Await(s *Signal) bool { return p.await(s, false) }

// sleep implements Sleep and, parking where Sleep reports false, Advance.
func (p *Proc) sleep(dt units.Seconds, park bool) bool {
	if dt < 0 {
		dt = 0
	}
	k := p.k
	at := k.now + dt
	if k.head == len(k.fifo) && (len(k.events) == 0 || k.events[0].at > at) {
		k.now, k.cur = at, 0
		return true
	}
	k.push(at, due{proc: p})
	p.waitKind, p.waitDt = waitAdvance, dt
	if park {
		p.block()
	}
	return park
}

// await implements Await and, parking where Await reports false,
// WaitSignal.
func (p *Proc) await(s *Signal, park bool) bool {
	if s.Fired() {
		return true
	}
	if s.seq != 0 {
		p.k.heapPush(event{at: s.at, seq: s.seq, due: due{sig: s}})
		s.seq = 0 // the heap fires s now
	}
	s.addWaiter(p)
	p.waitKind, p.waitSig = waitSignal, s
	if park {
		p.block()
	}
	return park
}

// A Stepper is work a process hands the kernel to run at its wakes; see
// Hold.
type Stepper interface {
	// Step runs on behalf of the held process p, at one of its wakes. It
	// may call p.Sleep and p.Await, and must return right after one of
	// them reports false: its wake is queued. It reports whether the
	// work is done, and the process's body may resume.
	Step(p *Proc) (done bool)
}

// Hold runs s.Step now and then at each later wake of the process, in
// place of resuming its body, until a step reports done; only then does the
// body carry on. Sleep and Await in a step do what Advance and WaitSignal
// would do in the body, under the same clock and tie-break, so a held
// process does exactly what the same calls made from its body would — with
// no switch to the body at the wakes in between. A panic in a step the
// kernel runs fails Run naming the process, as one in a body does.
func (p *Proc) Hold(s Stepper) {
	if s.Step(p) {
		return
	}
	p.step = s
	p.block()
}

// runStep runs a held process's step at its wake, reporting whether it is
// done; a panic in it becomes the kernel's failure, as one in a body does.
func (k *Kernel) runStep(p *Proc) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			k.failed = fmt.Errorf("des: process %s panicked: %v", p.Name(), r)
		}
	}()
	return p.step.Step(p)
}

// wake transfers control to p until it blocks again or finishes, giving it
// a coroutine if this is its first wake and taking the coroutine back if it
// was its last. A held process's step runs first, here on the kernel's
// stack, and the body resumes only once the step is done — or, when the
// kernel is abandoning its processes, at once, to unwind. Must be called
// from kernel context.
func (k *Kernel) wake(p *Proc) {
	if p.state == stateDone {
		return
	}
	if p.step != nil {
		if !k.abandoning && !k.runStep(p) {
			return
		}
		p.step = nil
	}
	if p.co == nil {
		p.co = acquireCoro()
		p.co.p = p
	}
	co := p.co
	co.next()
	if p.state == stateDone {
		p.co = nil
		releaseCoro(co)
	}
}

// coro is a runtime coroutine that runs process bodies, one after another:
// run a body, park, be handed the next body — possibly by another kernel on
// another goroutine. Reuse is what makes coroutines affordable here: a bare
// iter.Pull per process would nearly double a cold projection's allocations.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process to run at the next resume
}

// freeCoroCap bounds the free list, and with it the goroutines and stack
// memory the package holds while idle. 512 is four 128-rank worlds — the
// largest the pipeline simulates — so with up to four kernels in flight
// every process after the first world's starts on a recycled coroutine;
// more concurrency than that still works and only recycles less. DESIGN.md
// §12 has the measured cost.
const freeCoroCap = 512

// freeCoros holds parked coroutines between processes.
var freeCoros struct {
	sync.Mutex
	list []*coro
}

// acquireCoro takes a parked coroutine, or starts one if none is parked.
func acquireCoro() *coro {
	freeCoros.Lock()
	defer freeCoros.Unlock()
	if n := len(freeCoros.list); n > 0 {
		c := freeCoros.list[n-1]
		freeCoros.list = freeCoros.list[:n-1]
		return c
	}
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// releaseCoro parks c for the next process, or ends it if the list is full.
func releaseCoro(c *coro) {
	freeCoros.Lock()
	full := len(freeCoros.list) == freeCoroCap
	if !full {
		freeCoros.list = append(freeCoros.list, c)
	}
	freeCoros.Unlock()
	if full {
		c.stop()
	}
}

// loop is the coroutine body: run the assigned process, park, repeat. The
// park's yield returns false only when releaseCoro stops a surplus coroutine.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes c.p's body to completion, absorbing its panics so the
// coroutine survives to run another.
func (c *coro) run() {
	p := c.p
	c.p = nil
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAborted); !ok {
				// A real bug in simulation code: surface it.
				p.k.failed = fmt.Errorf("des: process %s panicked: %v", p.Name(), r)
			}
		}
		p.state = stateDone
		p.k.live--
	}()
	p.state = stateRunning
	p.fn(p)
}

// Signal is a one-shot broadcast: processes wait on it, someone fires it.
// Once fired it stays fired.
//
// Signals are carved from kernel-owned slabs and named lazily: simulation
// code mints millions of them, and almost none ever shows its name. A
// signal that is done with can be handed back (Release), so a run that
// releases each message's signal carves only as many as are in flight at
// once. A Signal is kept to 64 bytes (TestSignalSize), one cache line:
// every message writes one, and Release zeroes it whole.
type Signal struct {
	k    *Kernel
	kind string
	id   int // -1: kind IS the full name; else rendered as kind#id

	// A timed fire stamped by FireAt and not pushed (seq 0: none): due at
	// (at, seq), and fired — as far as anyone can tell — once passed.
	at  units.Seconds
	seq uint64

	// Waiter storage: the single-waiter case (every point-to-point
	// request) stays inline; the rest of a collective's waiters go on a
	// kernel-owned list, more-1 its index (0: none).
	w0    *Proc
	more  uint32
	fired bool
}

// NewSignalKind creates an unfired signal lazily named kind#id: the
// allocation-free spelling of the name fmt.Sprintf("%s#%d", kind, id).
func (k *Kernel) NewSignalKind(kind string, id int) *Signal { return k.newSignal(kind, id) }

// newSignal carves a signal from the kernel's arena.
func (k *Kernel) newSignal(kind string, id int) *Signal {
	s := k.sigs.New()
	s.k, s.kind, s.id = k, kind, id
	return s
}

// Release hands s's storage back to the kernel for the next signal. Release
// only a signal that nothing can fire again or wait on again: one whose one
// fire has run (or, stamped, has passed) and whose waiters all woke. A
// released signal is dead; keeping a pointer to it is a bug nothing
// detects, as after Reset. Release panics if s has not fired or still has
// a waiter.
func (k *Kernel) Release(s *Signal) {
	if s.k != k || !s.Fired() || s.w0 != nil || s.more != 0 {
		panic(fmt.Sprintf("des: Release of signal %s, which has not fired or is waited on", s.Name()))
	}
	k.sigs.Free(s)
}

// Name returns the signal's name, formatting it on first use.
func (s *Signal) Name() string {
	if s.id < 0 {
		return s.kind
	}
	return fmt.Sprintf("%s#%d", s.kind, s.id)
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool {
	if !s.fired && s.seq != 0 && s.k.passed(s.at, s.seq) {
		s.fired = true
	}
	return s.fired
}

// addWaiter registers p to be woken when the signal fires.
func (s *Signal) addWaiter(p *Proc) {
	if s.w0 == nil {
		s.w0 = p
		return
	}
	k := s.k
	if s.more == 0 {
		if n := len(k.free); n > 0 {
			s.more, k.free = k.free[n-1], k.free[:n-1]
		} else {
			k.lists = append(k.lists, nil)
			s.more = uint32(len(k.lists))
		}
	}
	k.lists[s.more-1] = append(k.lists[s.more-1], p)
}

// Fire marks the signal fired and schedules every waiter to resume at the
// current virtual time (in wait order). Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	k := s.k
	if s.w0 != nil {
		k.fifo = append(k.fifo, due{proc: s.w0})
		s.w0 = nil
	}
	if s.more != 0 {
		l := k.lists[s.more-1]
		for _, w := range l {
			k.fifo = append(k.fifo, due{proc: w})
		}
		clear(l)
		k.lists[s.more-1] = l[:0]
		k.free = append(k.free, s.more)
		s.more = 0
	}
}

// Spawn registers a process to start at virtual time zero. It must be
// called before Run.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.spawn(name, -1, fn)
}

// SpawnKind is Spawn with a lazily formatted name kind+id — the
// allocation-free spelling of Spawn(fmt.Sprintf("%s%d", kind, id), fn)
// for simulations that mint processes by the million.
func (k *Kernel) SpawnKind(kind string, id int, fn func(*Proc)) *Proc {
	return k.spawn(kind, id, fn)
}

func (k *Kernel) spawn(kind string, nameID int, fn func(*Proc)) *Proc {
	p := k.procMem.New()
	*p = Proc{
		k:      k,
		kind:   kind,
		nameID: int32(nameID),
		state:  stateReady,
		fn:     fn,
	}
	k.procs = append(k.procs, p)
	k.live++
	// First resume at t=0, in spawn order.
	k.fifo = append(k.fifo, due{proc: p})
	return p
}

// Run drives the simulation until every process finishes. It returns an
// error on deadlock (blocked processes with an empty event queue) or if a
// process panicked. When every process finishes, and on deadlock, the
// clock ends no earlier than the last timed fire, waited for or not.
func (k *Kernel) Run() error {
	for {
		var d due
		switch {
		case len(k.events) > 0 && k.events[0].at <= k.now:
			e := k.pop()
			if e.at < k.now {
				k.abandonBlocked()
				return fmt.Errorf("des: time went backwards: %v < %v", e.at, k.now)
			}
			d, k.cur = e.due, e.seq
		case k.head < len(k.fifo):
			d, k.cur = k.fifo[k.head], 0
			k.fifo[k.head] = due{} // clear pointers for the GC
			if k.head++; k.head == len(k.fifo) {
				k.fifo, k.head = k.fifo[:0], 0
			}
		case len(k.events) > 0:
			e := k.pop()
			k.now, k.cur, d = e.at, e.seq, e.due
		case k.live > 0:
			k.now, k.cur = max(k.now, k.last), 0
			stuck := k.blockedReport()
			k.abandonBlocked()
			return fmt.Errorf("des: deadlock at t=%s with %d blocked processes:\n%s",
				units.FormatSeconds(k.now), k.live, stuck)
		default:
			k.now, k.cur = max(k.now, k.last), 0
			return nil
		}
		if d.proc != nil {
			k.wake(d.proc)
		} else {
			d.sig.Fire()
		}
		if k.failed != nil {
			k.abandonBlocked()
			return k.failed
		}
	}
}

// blockedReport lists still-blocked processes and what they wait on.
func (k *Kernel) blockedReport() string {
	var lines []string
	for _, p := range k.procs {
		if p.state == stateBlocked || p.state == stateReady {
			lines = append(lines, fmt.Sprintf("  %s: waiting on %s", p.Name(), p.waitReason()))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// abandonBlocked ends every unfinished process so Run leaves nothing
// parked: a blocked one is resumed with the abandoning flag up, unwinds
// through its deferred calls and hands its coroutine back; one that never
// started has nothing to unwind.
func (k *Kernel) abandonBlocked() {
	k.abandoning = true
	for _, p := range k.procs {
		switch p.state {
		case stateBlocked:
			k.wake(p)
		case stateReady:
			p.state = stateDone
			k.live--
		}
	}
}
