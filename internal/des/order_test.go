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
// executed, and whether the run deadlocked.
func kernelRun(t *testing.T, k *Kernel, pg orderProgram) (log []string, deadlocked bool) {
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
				}
			}
		})
	}
	err := k.Run()
	if err != nil && !strings.HasPrefix(err.Error(), "des: deadlock") {
		t.Fatalf("%s: %v", pg.name, err)
	}
	return log, err != nil
}

// oracleRun is the specification: every pending event in one list, the
// least (at, push order) taken each time, no shortcuts.
func oracleRun(pg orderProgram) (log []string, deadlocked bool) {
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
			}
		}
	}
	// With nothing left to run, whoever still waits on a signal is stuck.
	for _, ws := range waiters {
		if len(ws) > 0 {
			return log, true
		}
	}
	return log, false
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
				kind: stepKind(src.Intn(4)),
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
		want, wantStuck := oracleRun(pg)
		got, gotStuck := kernelRun(t, NewKernel(), pg)
		if !slices.Equal(got, want) || gotStuck != wantStuck {
			t.Fatalf("%s:\nkernel (deadlock %v) %v\noracle (deadlock %v) %v", pg.name, gotStuck, got, wantStuck, want)
		}
		// The same on a kernel that has run every earlier program.
		reused.Reset()
		got, gotStuck = kernelRun(t, reused, pg)
		if !slices.Equal(got, want) || gotStuck != wantStuck {
			t.Fatalf("%s on a reset kernel:\nkernel (deadlock %v) %v\noracle (deadlock %v) %v", pg.name, gotStuck, got, wantStuck, want)
		}
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
