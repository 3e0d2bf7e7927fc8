package des

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

// Same-time order, checked against an oracle rather than against the
// kernel's own queues. A program is data — per process, a list of steps —
// run twice: by the kernel, and by oracleRun, which keeps every pending
// event in one flat list and always takes the least (at, push order). The
// two must execute the same steps at the same times in the same sequence.

type stepKind int

const (
	stAdvance stepKind = iota // Advance(dt)
	stFireAt                  // FireAt(sig, dt)
	stFire                    // sig.Fire()
	stWait                    // WaitSignal(sig)
	stFired                   // log sig.Fired()
)

type step struct {
	kind stepKind
	sig  int
	dt   units.Seconds
}

// orderProgram is one process per entry of procs, over sigs signals.
type orderProgram struct {
	name  string
	sigs  int
	procs [][]step
}

// kernelRun executes pg on the kernel and returns "t proc step" per step
// executed (and "sN fired=b" after an stFired), whether the run
// deadlocked, and the clock Run left.
func kernelRun(t *testing.T, k *Kernel, pg orderProgram) (log []string, deadlocked bool, end units.Seconds) {
	t.Helper()
	sigs := make([]*Signal, pg.sigs)
	for i := range sigs {
		sigs[i] = k.NewSignalKind("s", i)
	}
	for id, steps := range pg.procs {
		k.SpawnKind("p", id, func(p *Proc) {
			for pc, st := range steps {
				log = append(log, fmt.Sprintf("%v p%d.%d", p.Now(), id, pc))
				switch st.kind {
				case stAdvance:
					p.Advance(st.dt)
				case stFireAt:
					k.FireAt(sigs[st.sig], st.dt)
				case stFire:
					sigs[st.sig].Fire()
				case stWait:
					p.WaitSignal(sigs[st.sig])
				case stFired:
					log = append(log, fmt.Sprintf("s%d fired=%v", st.sig, sigs[st.sig].Fired()))
				}
			}
		})
	}
	err := k.Run()
	if err != nil && !strings.HasPrefix(err.Error(), "des: deadlock") {
		t.Fatalf("%s: %v", pg.name, err)
	}
	return log, err != nil, k.Now()
}

// oracleRun is the specification: every pending event in one list, the
// least (at, push order) taken each time, no shortcuts — and the clock
// stops at the last event taken, waited for or not.
func oracleRun(pg orderProgram) (log []string, deadlocked bool, end units.Seconds) {
	type pend struct {
		at    units.Seconds
		order int
		proc  int // -1: fire sig
		sig   int
	}
	var (
		queue   []pend
		pushes  int
		now     units.Seconds
		fired   = make([]bool, pg.sigs)
		waiters = make([][]int, pg.sigs)
		pc      = make([]int, len(pg.procs))
	)
	push := func(at units.Seconds, proc, sig int) {
		pushes++
		queue = append(queue, pend{at, pushes, proc, sig})
	}
	fire := func(sig int) {
		if fired[sig] {
			return
		}
		fired[sig] = true
		for _, w := range waiters[sig] {
			push(now, w, 0)
		}
		waiters[sig] = nil
	}
	for id := range pg.procs {
		push(0, id, 0)
	}
	for len(queue) > 0 {
		min := 0
		for i, e := range queue {
			if m := queue[min]; e.at < m.at || e.at == m.at && e.order < m.order {
				min = i
			}
		}
		e := queue[min]
		queue = slices.Delete(queue, min, min+1)
		now = e.at
		if e.proc < 0 {
			fire(e.sig)
			continue
		}
		// Run the process until it blocks or ends.
		for id, blocked := e.proc, false; !blocked && pc[id] < len(pg.procs[id]); {
			st := pg.procs[id][pc[id]]
			log = append(log, fmt.Sprintf("%v p%d.%d", now, id, pc[id]))
			pc[id]++
			dt := max(st.dt, 0)
			switch st.kind {
			case stAdvance:
				push(now+dt, id, 0)
				blocked = true
			case stFireAt:
				push(now+dt, -1, st.sig)
			case stFire:
				fire(st.sig)
			case stWait:
				if !fired[st.sig] {
					waiters[st.sig] = append(waiters[st.sig], id)
					blocked = true
				}
			case stFired:
				log = append(log, fmt.Sprintf("s%d fired=%v", st.sig, fired[st.sig]))
			}
		}
	}
	// With nothing left to run, whoever still waits on a signal is stuck.
	for _, ws := range waiters {
		if len(ws) > 0 {
			return log, true, now
		}
	}
	return log, false, now
}

// orderPrograms are the hand-written cases: each names the tie it is about.
var orderPrograms = []orderProgram{
	{name: "t=0 spawns run in spawn order, zero advances interleave", procs: [][]step{
		{{kind: stAdvance}, {kind: stAdvance}},
		{{kind: stAdvance}},
		{},
		{{kind: stAdvance}, {kind: stAdvance}, {kind: stAdvance}},
	}},
	{name: "zero-delay FireAt queues behind wakes already pushed for now", sigs: 2, procs: [][]step{
		{{kind: stFire, sig: 0}, {kind: stFireAt, sig: 1}, {kind: stAdvance}},
		{{kind: stWait, sig: 0}, {kind: stAdvance}},
		{{kind: stWait, sig: 1}, {kind: stAdvance}},
	}},
	{name: "negative delays clamp to now", sigs: 1, procs: [][]step{
		{{kind: stAdvance, dt: 1}, {kind: stFireAt, sig: 0, dt: -3}, {kind: stAdvance, dt: -2}, {kind: stAdvance}},
		{{kind: stWait, sig: 0}, {kind: stAdvance, dt: -1}},
		{{kind: stAdvance, dt: 1}, {kind: stAdvance}},
	}},
	{name: "several waiters wake in wait order, behind what was pushed before the fire", sigs: 1, procs: [][]step{
		{{kind: stWait, sig: 0}, {kind: stAdvance}},
		{{kind: stWait, sig: 0}, {kind: stAdvance}},
		{{kind: stAdvance}, {kind: stFire, sig: 0}, {kind: stAdvance}},
		{{kind: stWait, sig: 0}},
		{{kind: stAdvance}, {kind: stAdvance}},
	}},
	{name: "queued earlier for exactly T runs before pushed at T", sigs: 2, procs: [][]step{
		{{kind: stFireAt, sig: 0, dt: 2}, {kind: stAdvance, dt: 2}, {kind: stFire, sig: 1}, {kind: stAdvance}},
		{{kind: stAdvance, dt: 1}, {kind: stAdvance, dt: 1}, {kind: stAdvance}},
		{{kind: stWait, sig: 0}, {kind: stAdvance}},
		{{kind: stWait, sig: 1}},
		{{kind: stAdvance, dt: 2}, {kind: stFireAt, sig: 1}},
	}},
	{name: "timed fires and advances for one time keep push order", sigs: 3, procs: [][]step{
		{{kind: stFireAt, sig: 0, dt: 1}, {kind: stAdvance, dt: 1}, {kind: stFireAt, sig: 2, dt: 1}},
		{{kind: stAdvance, dt: 1}, {kind: stFireAt, sig: 1}},
		{{kind: stWait, sig: 0}, {kind: stWait, sig: 1}, {kind: stWait, sig: 2}},
		{{kind: stWait, sig: 1}, {kind: stAdvance, dt: 1}},
	}},
	{name: "a wait nobody answers deadlocks after everything else ran", sigs: 2, procs: [][]step{
		{{kind: stWait, sig: 0}},
		{{kind: stAdvance, dt: 1}, {kind: stFire, sig: 1}},
		{{kind: stWait, sig: 1}, {kind: stAdvance}},
	}},
	{name: "an unwaited timed fire reads fired once passed and still ends the run", sigs: 1, procs: [][]step{
		{{kind: stFireAt, sig: 0, dt: 3}, {kind: stFired}, {kind: stAdvance, dt: 1}, {kind: stFired}},
		{{kind: stAdvance, dt: 3}, {kind: stFired}},
		{{kind: stAdvance, dt: 2}, {kind: stAdvance, dt: 1}, {kind: stFired}},
	}},
	{name: "a fire stamped for T sorts among the heap events due at T by its seq", sigs: 1, procs: [][]step{
		{{kind: stAdvance, dt: 1}, {kind: stFired}, {kind: stWait}, {kind: stFired}},
		{{kind: stFireAt, dt: 1}},
		{{kind: stAdvance, dt: 1}, {kind: stFired}},
	}},
	{name: "an Advance shortcut lands after every fire stamped for its time", sigs: 1, procs: [][]step{
		{{kind: stAdvance, dt: 1}, {kind: stFireAt, dt: 1}, {kind: stAdvance, dt: 1}, {kind: stFired}},
		{},
	}},
	{name: "of two timed fires the earlier fires, the later still moves the clock", sigs: 1, procs: [][]step{
		{{kind: stFireAt, dt: 3}, {kind: stFireAt, dt: 1}, {kind: stWait}, {kind: stFired}},
		{{kind: stAdvance, dt: 2}, {kind: stFireAt, dt: 1}, {kind: stFired}},
	}},
	{name: "a timed fire of a fired signal changes only the clock", sigs: 1, procs: [][]step{
		{{kind: stFire}, {kind: stFireAt, dt: 2}, {kind: stFired}, {kind: stWait}},
	}},
	{name: "a deadlock is reported at the last timed fire", sigs: 2, procs: [][]step{
		{{kind: stFireAt, sig: 1, dt: 4}, {kind: stWait}},
		{{kind: stAdvance, dt: 1}, {kind: stFired, sig: 1}},
	}},
}

// randomOrderProgram draws a program whose times are small integers, so
// equal timestamps are the rule.
func randomOrderProgram(seed int) orderProgram {
	src := rng.New(fmt.Sprintf("des-order-%d", seed))
	pg := orderProgram{name: fmt.Sprintf("random %d", seed), sigs: 1 + src.Intn(4)}
	for p, n := 0, 2+src.Intn(6); p < n; p++ {
		var steps []step
		for s, m := 0, src.Intn(10); s < m; s++ {
			steps = append(steps, step{
				kind: stepKind(src.Intn(5)),
				sig:  src.Intn(pg.sigs),
				dt:   units.Seconds(src.Intn(4) - 1), // -1 clamps, 0 ties
			})
		}
		pg.procs = append(pg.procs, steps)
	}
	return pg
}

func TestSameTimeOrderMatchesOracle(t *testing.T) {
	programs := slices.Clone(orderPrograms)
	for seed := 1; seed <= 200; seed++ {
		programs = append(programs, randomOrderProgram(seed))
	}
	reused := NewKernel()
	for _, pg := range programs {
		want, wantStuck, wantEnd := oracleRun(pg)
		got, gotStuck, gotEnd := kernelRun(t, NewKernel(), pg)
		if !slices.Equal(got, want) || gotStuck != wantStuck || gotEnd != wantEnd {
			t.Fatalf("%s:\nkernel (deadlock %v, end %v) %v\noracle (deadlock %v, end %v) %v",
				pg.name, gotStuck, gotEnd, got, wantStuck, wantEnd, want)
		}
		// The same on a kernel that has run every earlier program.
		reused.Reset()
		got, gotStuck, gotEnd = kernelRun(t, reused, pg)
		if !slices.Equal(got, want) || gotStuck != wantStuck || gotEnd != wantEnd {
			t.Fatalf("%s on a reset kernel:\nkernel (deadlock %v, end %v) %v\noracle (deadlock %v, end %v) %v",
				pg.name, gotStuck, gotEnd, got, wantStuck, wantEnd, want)
		}
	}
}

// heldRun is kernelRun with the processes that held says hold: such a
// process hands its whole program to Hold, and the kernel runs it at the
// process's wakes as a step, through Sleep and Await.
func heldRun(t *testing.T, k *Kernel, pg orderProgram, held func(id int) bool) (log []string, deadlocked bool, end units.Seconds) {
	t.Helper()
	sigs := make([]*Signal, pg.sigs)
	for i := range sigs {
		sigs[i] = k.NewSignalKind("s", i)
	}
	for id, steps := range pg.procs {
		pc, parked := 0, false
		step := stepFunc(func(p *Proc) bool {
			for ; pc < len(steps); pc++ {
				if parked { // the wait at pc is over
					parked = false
					continue
				}
				st := steps[pc]
				log = append(log, fmt.Sprintf("%v p%d.%d", p.Now(), id, pc))
				switch st.kind {
				case stAdvance:
					parked = !p.Sleep(st.dt)
				case stFireAt:
					k.FireAt(sigs[st.sig], st.dt)
				case stFire:
					sigs[st.sig].Fire()
				case stWait:
					parked = !p.Await(sigs[st.sig])
				case stFired:
					log = append(log, fmt.Sprintf("s%d fired=%v", st.sig, sigs[st.sig].Fired()))
				}
				if parked {
					return false
				}
			}
			return true
		})
		k.SpawnKind("p", id, func(p *Proc) {
			if held(id) {
				p.Hold(step)
				return
			}
			for pc := range steps {
				st := steps[pc]
				log = append(log, fmt.Sprintf("%v p%d.%d", p.Now(), id, pc))
				switch st.kind {
				case stAdvance:
					p.Advance(st.dt)
				case stFireAt:
					k.FireAt(sigs[st.sig], st.dt)
				case stFire:
					sigs[st.sig].Fire()
				case stWait:
					p.WaitSignal(sigs[st.sig])
				case stFired:
					log = append(log, fmt.Sprintf("s%d fired=%v", st.sig, sigs[st.sig].Fired()))
				}
			}
		})
	}
	err := k.Run()
	if err != nil && !strings.HasPrefix(err.Error(), "des: deadlock") {
		t.Fatalf("%s: %v", pg.name, err)
	}
	return log, err != nil, k.Now()
}

// TestHeldOrderMatchesOracle: a program run as Hold steps, by every process
// or by every other one beside bodies, keeps the oracle's order, clock and
// deadlocks — Sleep and Await are Advance and WaitSignal, minus the park.
func TestHeldOrderMatchesOracle(t *testing.T) {
	programs := slices.Clone(orderPrograms)
	for seed := 1; seed <= 200; seed++ {
		programs = append(programs, randomOrderProgram(seed))
	}
	modes := []struct {
		name string
		held func(id int) bool
	}{
		{"all held", func(int) bool { return true }},
		{"even ids held", func(id int) bool { return id%2 == 0 }},
	}
	reused := NewKernel()
	for _, pg := range programs {
		want, wantStuck, wantEnd := oracleRun(pg)
		for _, m := range modes {
			reused.Reset()
			got, gotStuck, gotEnd := heldRun(t, reused, pg, m.held)
			if !slices.Equal(got, want) || gotStuck != wantStuck || gotEnd != wantEnd {
				t.Fatalf("%s, %s:\nkernel (deadlock %v, end %v) %v\noracle (deadlock %v, end %v) %v",
					pg.name, m.name, gotStuck, gotEnd, got, wantStuck, wantEnd, want)
			}
		}
	}
}

// TestUnwaitedFireStaysOffTheHeap is the white-box half of the deferred
// fire: no heap event until someone waits, then exactly the one a push
// would have made.
func TestUnwaitedFireStaysOffTheHeap(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("timer")
	var stamped uint64
	k.Spawn("waiter", func(p *Proc) {
		k.FireAt(s, 2)
		if len(k.events) != 0 {
			t.Fatalf("a timed fire nobody waits on queued %d heap events", len(k.events))
		}
		stamped = k.seq
		k.FireAt(k.NewSignal("spare"), 1) // takes a later seq
		p.WaitSignal(s)
		if p.Now() != 2 {
			t.Errorf("woke at %v, want 2", p.Now())
		}
	})
	k.Spawn("watcher", func(p *Proc) {
		// The waiter has waited: its stamp is the heap's one event.
		if len(k.events) != 1 || k.events[0].at != 2 || k.events[0].seq != stamped || k.events[0].sig != s {
			t.Fatalf("heap after the wait = %+v, want one fire of s at 2 under seq %d", k.events, stamped)
		}
		p.WaitSignal(s) // a second waiter pushes nothing more
		if len(k.events) != 0 {
			t.Errorf("%d heap events left after the fire", len(k.events))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// Nobody ever waits: the heap stays empty and Run still ends at t=2.
	k.Reset()
	s = k.NewSignal("unheard")
	k.Spawn("p", func(p *Proc) {
		k.FireAt(s, 2)
		p.Advance(1)
		if s.Fired() || len(k.events) != 0 {
			t.Errorf("at t=1: fired %v, %d heap events; want false, 0", s.Fired(), len(k.events))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 2 || !s.Fired() {
		t.Errorf("Run ended at %v with fired %v, want 2 and true", k.Now(), s.Fired())
	}
}

// TestAdvanceDoesNotOvertakeTheFIFO is the white-box half: with the heap
// empty, only the FIFO stands between an Advance and its shortcut.
func TestAdvanceDoesNotOvertakeTheFIFO(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal("go")
	woke := units.Seconds(-1)
	k.Spawn("waiter", func(p *Proc) {
		p.WaitSignal(s)
		woke = p.Now()
	})
	k.Spawn("p", func(p *Proc) {
		s.Fire() // the waiter's wake is on the FIFO, the heap is empty
		if len(k.events) != 0 || len(k.fifo)-k.head != 1 {
			t.Fatalf("set-up: %d heap events, %d FIFO entries, want 0 and 1", len(k.events), len(k.fifo)-k.head)
		}
		pushed := k.seq
		p.Advance(1)
		if k.seq != pushed+1 {
			t.Error("advance took the shortcut past a non-empty FIFO")
		}
		if woke != 0 {
			t.Errorf("waiter woke at %v, want 0: before the advance moved the clock", woke)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
