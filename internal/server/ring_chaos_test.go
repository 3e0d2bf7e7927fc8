package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The ring's harness (ROADMAP item 5): seeded schedules of deliveries and
// faults against a real in-process ring, judged on the two quantities that
// repeat exactly — the bytes served and the evaluations run. Everything that
// could make a count depend on the run is pinned: the ring's names are fixed
// strings (so its geometry is) and the clock only moves when a schedule
// advances it. Nothing sleeps and nothing runs in the background: a peer call
// is one attempt, made while its client waits.
//
// Beside the ring runs a model of it — who is reachable, who holds what, what
// each peer breaker has seen — that predicts, for every delivery, which
// replica answers and how many evaluations every replica has run. The model
// is a page of routing rules, the ones DESIGN.md §10.2 and §10.3 state; a ring
// that disagrees with it has a bug or the rules have changed.

// chaosTargets are the three (hydra, target) groups the schedules ask about,
// chaosCells the four keys in each.
var (
	chaosTargets = []string{"power6-575", "bgp", "westmere-x5670"}
	chaosCells   = []struct {
		bench string
		ranks int
	}{{"BT-MZ", 16}, {"SP-MZ", 16}, {"LU-MZ", 16}, {"BT-MZ", 32}}
)

const chaosKeys = 12 // len(chaosTargets) * len(chaosCells)

func chaosGroup(key int) int { return key / len(chaosCells) }

func ringKeyBody(key int) string {
	c := chaosCells[key%len(chaosCells)]
	return fmt.Sprintf(`{"target":%q,"bench":%q,"class":"C","ranks":%d}`, chaosTargets[chaosGroup(key)], c.bench, c.ranks)
}

// chaosStep is one step of a schedule: a delivery of keys at a replica, or a
// fault.
type chaosStep struct {
	op   string // single | batch | job | kill | revive | restart | cut | heal | advance
	at   int    // the entry replica, the victim, or the cut's relaying side
	to   int    // cut: the side that stops hearing at's forwards
	keys []int
}

func (s chaosStep) String() string {
	switch s.op {
	case "single", "batch", "job":
		return fmt.Sprintf("%s@%d%v", s.op, s.at, s.keys)
	case "cut":
		return fmt.Sprintf("cut %d->%d", s.at, s.to)
	case "heal", "advance":
		return s.op
	}
	return fmt.Sprintf("%s %d", s.op, s.at)
}

// modelBreaker is what the model keeps of one replica's breaker for one peer.
type modelBreaker struct {
	failures int
	open     bool
	openedAt time.Duration
}

// chaosModel is the ring as its rules describe it.
type chaosModel struct {
	pref      [][]int // per group: replica indexes in preference order
	alive     []bool
	cutAt     int // forwards from cutAt to cutTo are dropped; -1 for no cut
	cutTo     int
	lru       []map[int]bool // per replica: the keys it holds — those it computed
	brk       [][]modelBreaker
	now       time.Duration
	evals     []int64 // per replica: evaluations run so far
	threshold int
	cooldown  time.Duration
}

func newChaosModel(reps []*clusterReplica) *chaosModel {
	n := len(reps)
	names := make([]string, n)
	for i, rep := range reps {
		names[i] = rep.name
	}
	ring := cluster.NewRing(names)
	m := &chaosModel{cutAt: -1, alive: make([]bool, n), evals: make([]int64, n), brk: make([][]modelBreaker, n)}
	for _, target := range chaosTargets {
		var order []int
		for _, name := range ring.Preference(cluster.GroupKey("hydra", target)) {
			order = append(order, slices.Index(names, name))
		}
		m.pref = append(m.pref, order)
	}
	for i := range reps {
		m.alive[i] = true
		m.lru = append(m.lru, map[int]bool{})
		m.brk[i] = make([]modelBreaker, n)
	}
	// The breaker's two numbers are the server's to choose, not the model's.
	for _, p := range reps[0].srv.peers.peers {
		m.threshold, m.cooldown = p.breaker.threshold, p.breaker.cooldown
	}
	return m
}

// probeDue reports whether b's cooldown has run out: the next call is let
// through alone, as the probe.
func (m *chaosModel) probeDue(b *modelBreaker) bool {
	return b.open && m.now-b.openedAt >= m.cooldown
}

// racy reports whether concurrent calls could land on one breaker with
// different fates — a due probe admits one caller and refuses the rest — in
// which case a schedule delivers a batch one item at a time: which caller wins
// such a race costs a duplicate fill, never a byte, but the count would no
// longer repeat. (A cut is not such a case: every call across it fails.)
func (m *chaosModel) racy() bool {
	for i := range m.brk {
		for k := range m.brk[i] {
			if m.probeDue(&m.brk[i][k]) {
				return true
			}
		}
	}
	return false
}

// call is one peer call — a forward — from a replica to a peer, through that
// peer's breaker.
func (m *chaosModel) call(from, to int) bool {
	b := &m.brk[from][to]
	probe := m.probeDue(b)
	if b.open && !probe {
		return false
	}
	if m.alive[to] && !(from == m.cutAt && to == m.cutTo) {
		*b = modelBreaker{}
		return true
	}
	if b.failures++; probe || b.failures >= m.threshold {
		*b = modelBreaker{open: true, openedAt: m.now}
	}
	return false
}

// held reports whether a replica can answer a key from what it has.
func (m *chaosModel) held(at, key int) bool { return m.lru[at][key] }

// answer is a replica resolving a key it was asked for and may not pass on:
// held, else computed and from then on held.
func (m *chaosModel) answer(at, key int) outcome {
	if m.lru[at][key] {
		return outcomeHit
	}
	m.evals[at]++
	m.lru[at][key] = true
	return outcomeMiss
}

// route walks a group's preference order from an entry replica and returns
// the replica that takes the request: the first peer ahead of the entry that
// accepts a forward, else the entry itself.
func (m *chaosModel) route(entry, group int) int {
	for _, c := range m.pref[group] {
		if c == entry || m.call(entry, c) {
			return c
		}
	}
	panic("a preference order without the entry replica")
}

// apply predicts one step. For a single request it returns who answers it
// and from where.
func (m *chaosModel) apply(s chaosStep) (server int, oc outcome) {
	switch s.op {
	case "kill":
		m.alive[s.at] = false
	case "revive":
		m.alive[s.at] = true
	case "restart": // back, with nothing: a new process
		m.alive[s.at] = true
		m.lru[s.at] = map[int]bool{}
		m.brk[s.at] = make([]modelBreaker, len(m.alive))
	case "cut":
		m.cutAt, m.cutTo = s.at, s.to
	case "heal":
		m.cutAt = -1
	case "advance":
		m.now += m.cooldown + time.Second
	case "job": // held, else compute: jobs skip the owner hop
		return s.at, m.answer(s.at, s.keys[0])
	case "single":
		server = s.at
		if key := s.keys[0]; !m.held(s.at, key) {
			server = m.route(s.at, chaosGroup(key))
		}
		return server, m.answer(server, s.keys[0])
	case "batch":
		// Held members are answered in place; each group's open members
		// travel together.
		for g := range m.pref {
			var open []int
			for _, key := range s.keys {
				if chaosGroup(key) == g && !m.held(s.at, key) {
					open = append(open, key)
				}
			}
			if len(open) == 0 {
				continue
			}
			server := m.route(s.at, g)
			for _, key := range open {
				m.answer(server, key)
			}
		}
	}
	return s.at, ""
}

// live counts the replicas that are up.
func (m *chaosModel) live() (n int) {
	for _, a := range m.alive {
		if a {
			n++
		}
	}
	return n
}

// pick returns a random replica index whose alive flag is want, or -1.
func (m *chaosModel) pick(rng *rand.Rand, want bool) int {
	var candidates []int
	for i, a := range m.alive {
		if a == want {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.Intn(len(candidates))]
}

// next draws the schedule's next step from what is possible now. A kill takes
// the first live replica of a random group's preference order — the one its
// requests are landing on — so two in a row are the double kill, owner then
// successor.
func (m *chaosModel) next(rng *rand.Rand, faults, jobs bool) chaosStep {
	for {
		switch p := rng.Intn(12); {
		case p < 7:
			s := chaosStep{op: "single", at: m.pick(rng, true), keys: []int{rng.Intn(chaosKeys)}}
			if q := rng.Intn(6); q >= 3 && q < 5 {
				s.op, s.keys = "batch", rng.Perm(chaosKeys)[:2+rng.Intn(4)]
			} else if q == 5 && jobs {
				s.op = "job"
			}
			return s
		case p == 7 && faults:
			if m.live() < 2 {
				continue
			}
			for _, c := range m.pref[rng.Intn(len(m.pref))] {
				if m.alive[c] {
					return chaosStep{op: "kill", at: c}
				}
			}
		case p == 8 && faults:
			if dead := m.pick(rng, false); dead >= 0 {
				return chaosStep{op: []string{"revive", "restart"}[rng.Intn(2)], at: dead}
			}
		case p == 9 && faults:
			if m.cutAt >= 0 {
				return chaosStep{op: "heal"}
			}
			if from, to := m.pick(rng, true), m.pick(rng, true); from != to {
				return chaosStep{op: "cut", at: from, to: to}
			}
		case p == 10:
			return chaosStep{op: "advance"}
		}
	}
}

// chaosRing is a ring under a schedule: the replicas, the model beside them,
// and a single-process control's document for every key.
type chaosRing struct {
	t     *testing.T
	reps  []*clusterReplica
	clock *testClock
	model *chaosModel
	want  [][]byte
	trace []string
	asked map[int]bool
}

func newChaosRing(t *testing.T, n int) *chaosRing {
	names := make([]string, n)
	for i := range names {
		// Never dialled — boot points every peer at its listener —
		// and loopback if it ever were. Under these names the three groups
		// have three owners on the 3-ring (orders 210, 021, 120) and two on
		// the 4-ring (3210, 3021, 1203).
		names[i] = fmt.Sprintf("http://127.0.0.1:9/member-%d", i)
	}
	r := &chaosRing{t: t, asked: map[int]bool{}}
	r.reps, r.clock = startCluster(t, names)
	r.model = newChaosModel(r.reps)
	ctl := newHTTPServer(t, New(Config{Workers: 4, Eval: (&stubEval{}).fn}))
	for key := 0; key < chaosKeys; key++ {
		code, _, doc := post(t, ctl.URL+"/v1/project", ringKeyBody(key))
		if code != 200 {
			t.Fatalf("control: key %d: status %d: %s", key, code, doc)
		}
		r.want = append(r.want, doc)
	}
	return r
}

func (r *chaosRing) failf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s\nschedule so far: %s", fmt.Sprintf(format, args...), strings.Join(r.trace, ", "))
}

// run applies one step to the ring and to the model and holds the ring to
// the model: no request fails, every document is the control's, a single
// request is answered by the replica and from the source the model names,
// and every replica has run exactly the evaluations the model says.
func (r *chaosRing) run(s chaosStep) {
	r.t.Helper()
	if s.op == "batch" && len(s.keys) > 1 && r.model.racy() {
		for _, key := range s.keys {
			r.run(chaosStep{op: "batch", at: s.at, keys: []int{key}})
		}
		return
	}
	r.trace = append(r.trace, s.String())
	entry := r.reps[s.at]
	switch s.op {
	case "kill":
		entry.killed.Store(true)
	case "revive":
		entry.killed.Store(false)
	case "restart":
		entry.srv.Close()
		entry.boot(r.reps, r.clock)
		entry.killed.Store(false)
	case "cut":
		r.reps[s.to].cutFrom.Store(entry.name)
	case "heal":
		for _, rep := range r.reps {
			rep.cutFrom.Store("")
		}
	case "advance":
		r.clock.advance(r.model.cooldown + time.Second)
	case "single":
		code, hdr, doc := post(r.t, entry.url+"/v1/project", ringKeyBody(s.keys[0]))
		if code != 200 {
			r.failf("%v: status %d: %s", s, code, doc)
		}
		r.check(s, s.keys[0], doc)
		server, oc := r.model.apply(s)
		peer := ""
		if server != s.at {
			peer = r.reps[server].name
		}
		if got := hdr.Get(peerHeader); got != peer {
			r.failf("%v: X-Swapp-Peer = %q, the model says %q", s, got, peer)
		}
		if got := hdr.Get("X-Cache"); got != string(oc) {
			r.failf("%v: X-Cache = %q, the model says %q", s, got, oc)
		}
	case "batch":
		bodies := make([]string, len(s.keys))
		for i, key := range s.keys {
			bodies[i] = ringKeyBody(key)
		}
		code, _, out := post(r.t, entry.url+"/v1/batch", batchBody(r.t, bodies...))
		if code != 200 {
			r.failf("%v: status %d: %s", s, code, out)
		}
		for i, e := range decodeBatch(r.t, out).Results {
			if e.Status != 200 {
				r.failf("%v: entry %d failed: %d %s", s, i, e.Status, e.Error)
			}
			r.check(s, s.keys[i], append(append([]byte(nil), e.Body...), '\n'))
		}
	case "job":
		st := submitJob(r.t, entry.url, `{"request":`+ringKeyBody(s.keys[0])+`}`)
		if final := waitJobDone(r.t, entry.url, st.ID); final.State != cluster.JobDone {
			r.failf("%v: job %s: %s", s, final.State, final.Error)
		}
		r.check(s, s.keys[0], resultBytes(r.t, entry.url, st.ID))
	}
	if s.op != "single" {
		r.model.apply(s)
	}
	for i, rep := range r.reps {
		if got := rep.eval.calls.Load(); got != r.model.evals[i] {
			r.failf("after %v replica %d has run %d evaluations, the model says %d (all: %v)", s, i, got, r.model.evals[i], r.model.evals)
		}
	}
}

func (r *chaosRing) check(s chaosStep, key int, doc []byte) {
	r.t.Helper()
	r.asked[key] = true
	if !bytes.Equal(doc, r.want[key]) {
		r.failf("%v: key %d differs from the single-process control:\nring:    %s\ncontrol: %s", s, key, doc, r.want[key])
	}
}

// total is the ring-wide evaluation count.
func (r *chaosRing) total() (n int64) {
	for _, rep := range r.reps {
		n += rep.eval.calls.Load()
	}
	return n
}

// TestRingChaosSchedules runs, on 3- and 4-replica rings, the failover arc
// and then the seeded schedules, logging each one's evaluation total and
// asserting their sum — the number a change to routing is judged on, so such
// a change states its price in this file's diff. The history, over the same
// 48 schedules (117 kills, 51 cuts, 44 restarts): 1 075 and 948 under gossip
// membership, 942 with every result pushed to its ring successor (PR 21), and
// 1 146 since that push was deleted — 1.74 warm recomputes per kill, about a
// tenth of one cold characterisation fill, which is what an owner's death now
// costs and all it costs. Every fourth seed is fault-free, and every eighth
// also job-free: there the ring must run exactly one evaluation per distinct
// key, plus one per job submitted where its key was not held. -short runs four
// seeds per ring size.
func TestRingChaosSchedules(t *testing.T) {
	seeds, want := 24, int64(1146)
	if testing.Short() {
		seeds, want = 4, 199
	}
	ran, sum := 0, int64(0)
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			t.Run("failover-arc", func(t *testing.T) { chaosFailoverArc(t, n) })
			for seed := 1; seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					sum += chaosSchedule(t, n, seed)
					ran++
				})
			}
		})
	}
	// A -run filter that picks some schedules out has no sum to hold.
	if ran == 2*seeds && sum != want {
		t.Errorf("the %d schedules ran %d evaluations in all, want %d", ran, sum, want)
	}
}

// chaosSchedule runs one seeded schedule: forty steps, then every key at
// every replica still standing. It returns the ring-wide evaluation count.
func chaosSchedule(t *testing.T, n, seed int) int64 {
	r := newChaosRing(t, n)
	rng := rand.New(rand.NewSource(int64(seed)))
	faults, jobs := seed%4 != 0, seed%8 != 0
	deliveries, jobFills := 0, int64(0)
	for step := 0; step < 40; step++ {
		s := r.model.next(rng, faults, jobs)
		if s.op == "job" && !r.model.held(s.at, s.keys[0]) {
			jobFills++
		}
		if len(s.keys) > 0 {
			deliveries++
		}
		r.run(s)
	}
	all := make([]int, chaosKeys)
	for key := range all {
		all[key] = key
	}
	for i, alive := range r.model.alive {
		if alive {
			r.run(chaosStep{op: "batch", at: i, keys: all})
		}
	}
	if !faults {
		if got, want := r.total(), int64(len(r.asked))+jobFills; got != want {
			t.Errorf("a fault-free schedule ran %d evaluations, want %d: one per distinct key and one per job for a key its replica did not hold (%d)", got, want, jobFills)
		}
	}
	t.Logf("eval.calls total %d (per replica %v) for %d deliveries and a sweep of all %d keys at every live replica; faults=%t jobs=%t",
		r.total(), r.model.evals, deliveries, chaosKeys, faults, jobs)
	return r.total()
}

// chaosFailoverArc walks the arc an owner's death now is and asserts it
// outright, not only through the model. Kill: each key the dead owner had
// computed costs exactly one evaluation ring-wide — at the successor,
// whichever survivor is asked first — and then none. Double kill: likewise
// for what that successor computed while it stood in, at the node after it.
func chaosFailoverArc(t *testing.T, n int) {
	r := newChaosRing(t, n)
	order := r.model.pref[0]
	owner, succ, third, last := order[0], order[1], order[2], order[n-1]
	warm, fresh := []int{0, 1}, []int{2, 3} // keys of group 0

	// askEverywhere asks for keys one at a time at every live replica —
	// first at the far end of the order, so that what the landing replica
	// evaluates it was forwarded — and returns what that cost in evaluations
	// ring-wide and at the replica the walk should land on.
	askEverywhere := func(keys []int, landing int) (evals, atLanding int64) {
		t.Helper()
		evals, atLanding = r.total(), r.reps[landing].eval.calls.Load()
		for k := range r.reps {
			if i := (last + k) % n; r.model.alive[i] {
				for _, key := range keys {
					r.run(chaosStep{op: "single", at: i, keys: []int{key}})
				}
			}
		}
		return r.total() - evals, r.reps[landing].eval.calls.Load() - atLanding
	}

	r.run(chaosStep{op: "batch", at: last, keys: warm})
	if got := r.reps[owner].eval.calls.Load(); got != int64(len(warm)) {
		t.Fatalf("the owner ran %d evaluations warming %d keys", got, len(warm))
	}
	r.run(chaosStep{op: "kill", at: owner})
	// One evaluation per key, then asked again everywhere: nothing more.
	for pass, want := range []int64{int64(len(warm)), 0} {
		if evals, atSucc := askEverywhere(warm, succ); evals != want || atSucc != want {
			t.Errorf("after the kill, pass %d: %d evaluations, %d of them at the successor, want %d and %d", pass, evals, atSucc, want, want)
		}
	}

	// The successor stands in for fresh keys, then dies too.
	r.run(chaosStep{op: "batch", at: last, keys: fresh})
	if got := r.reps[succ].eval.calls.Load(); got != int64(len(warm)+len(fresh)) {
		t.Fatalf("the successor has run %d evaluations standing in for %d keys", got, len(warm)+len(fresh))
	}
	r.run(chaosStep{op: "kill", at: succ})
	for pass, want := range []int64{int64(len(fresh)), 0} {
		if evals, atThird := askEverywhere(fresh, third); evals != want || atThird != want {
			t.Errorf("after the double kill, pass %d: %d evaluations, %d of them at the next node, want %d and %d", pass, evals, atThird, want, want)
		}
	}
	t.Logf("eval.calls total %d (per replica %v)", r.total(), r.model.evals)
}
