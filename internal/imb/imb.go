// Package imb implements the Intel MPI Benchmarks of the paper that price a
// routine the MPI simulator runs — PingPong, PingPing, Sendrecv and the
// Bcast, Reduce and Allreduce collectives — plus the paper's custom
// multi-Sendrecv benchmark (§2.2), on top of the discrete-event MPI
// simulator. The point-to-point benchmarks are simulated. The collective
// ones are not: the simulator fires a collective at its last arrival plus
// netmodel's cost, so their cells are that closed form, which mpi's
// TestCollectivesAreClosedForm holds the simulation to bit for bit.
//
// Its product is the Eq. 3 target-machine parameter table
//
//	P_Cj(m_i, S_k)
//
// — the time of MPI routine m_i at message size S_k and core count C_j —
// which SWAPP's communication projection maps application profiles onto.
// multi-Sendrecv additionally parameterises the non-blocking path per
// Eq. 1: issuing x successions of Isend/Irecv followed by a Waitall and
// fitting T(x) = T_LibraryOverhead + x·T_inFlight over x.
//
// A measurement is a cell — benchmark, pairing, in-flight depth x and
// message size — and cell.run is every benchmark's body, chosen by the
// cell's benchmark. A table builds one program, which runs the cell being
// measured, and hands it to every measurement, so what a table allocates
// does not grow with its measurements, and a measurement the suite's memo
// answers allocates nothing.
package imb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/units"
)

// DefaultSizes is the power-of-two message grid the suite sweeps, 4 B to
// 1 MiB.
func DefaultSizes() []units.Bytes { return units.Pow2Sizes(4, 1*units.MiB) }

// PingPing is the PerOp key of IMB's simultaneous bidirectional
// point-to-point pattern, which has no single MPI routine name.
const PingPing mpi.Routine = "IMB_PingPing"

// iterations per (benchmark, size) measurement. The simulator is
// deterministic, so a handful suffices to average out pipeline fill.
const iterations = 4

// multiXs are the in-flight depths multi-Sendrecv sweeps for the Eq. 1 fit,
// maxMultiX the largest.
var multiXs = [...]int{1, 2, 4, maxMultiX}

const maxMultiX = 8

// NBFit is one Eq. 1 parameterisation of the non-blocking
// Isend/Irecv/Waitall path, fitted from multi-Sendrecv:
// T(x, S) = Overhead + x·InFlight[S].
type NBFit struct {
	Overhead units.Seconds
	InFlight map[units.Bytes]units.Seconds
}

// Table is the benchmark output for one (machine, core count): the Eq. 3
// parameters plus the Eq. 1 non-blocking decomposition. Following IMB's
// cluster detection, the non-blocking path is parameterised twice: for
// pairs sharing a node (intra) and pairs on different nodes (inter).
type Table struct {
	Machine string
	Ranks   int
	Sizes   []units.Bytes

	// PerOp[routine][size] is the measured per-operation time.
	PerOp map[mpi.Routine]map[units.Bytes]units.Seconds

	// NBIntra and NBInter are the Eq. 1 fits for same-node and
	// cross-node partners. On single-node jobs both hold the intra fit.
	NBIntra NBFit
	NBInter NBFit
}

// Time looks up (log-log interpolating over the size grid) the per-op time
// of a routine at an arbitrary message size.
func (t *Table) Time(routine mpi.Routine, size units.Bytes) (units.Seconds, error) {
	m, ok := t.PerOp[routine]
	if !ok {
		return 0, fmt.Errorf("imb: routine %s not measured on %s/%d", routine, t.Machine, t.Ranks)
	}
	return interpSize(t.Sizes, m, size), nil
}

// InFlightIntra interpolates the intra-node Eq. 1 per-message in-flight
// time at a size.
func (t *Table) InFlightIntra(size units.Bytes) units.Seconds {
	return interpSize(t.Sizes, t.NBIntra.InFlight, size)
}

// InFlightInter interpolates the inter-node Eq. 1 per-message in-flight
// time at a size.
func (t *Table) InFlightInter(size units.Bytes) units.Seconds {
	return interpSize(t.Sizes, t.NBInter.InFlight, size)
}

// NBOverhead is the per-call software overhead of the non-blocking path
// (Eq. 1's T_LibraryOverhead) — a software cost, taken from the intra fit.
func (t *Table) NBOverhead() units.Seconds { return t.NBIntra.Overhead }

// TransferNB prices a non-blocking exchange per Eq. 1, with xIntra
// same-node and xInter cross-node message successions of the given size.
func (t *Table) TransferNB(size units.Bytes, xIntra, xInter float64) units.Seconds {
	return t.NBOverhead() + xIntra*t.InFlightIntra(size) + xInter*t.InFlightInter(size)
}

// stackGrid is the longest size grid a lookup serves without allocating;
// DefaultSizes has 19.
const stackGrid = 32

// interpSize log-log interpolates a size-keyed table. Non-positive samples
// are skipped rather than substituted: log-log needs positive values, and a
// placeholder like 1e-12 would bend the fitted curve through an absurd
// point, poisoning every query between the zero sample's neighbours. The
// persist decoders already reject non-positive timings on load, but tables
// built directly by Run (or by hand in tests) bypass that validation.
//
// Every comm lookup of a projection lands here, so a grid of up to
// stackGrid sizes is gathered on the stack; a longer one allocates.
func interpSize(grid []units.Bytes, m map[units.Bytes]units.Seconds, size units.Bytes) units.Seconds {
	var xb, yb [stackGrid]float64
	xs, ys := xb[:0], yb[:0]
	for _, s := range grid {
		v, ok := m[s]
		if !ok || v <= 0 {
			continue
		}
		xs = append(xs, float64(s))
		ys = append(ys, v)
	}
	if len(xs) == 0 {
		return 0
	}
	if size < 1 {
		size = 1
	}
	return stats.LogLogInterp(xs, ys, float64(size))
}

// gridGap reports whether a lookup at size in the size-keyed table m had
// to bridge a hole in the declared grid. With every declared size covered
// by a positive sample the answer is always false — the clean path —
// including queries outside the grid range, which clamp to the edge sample
// by design. With holes, a query is degraded when either declared
// bracketing neighbour (or the relevant edge) is uncovered, because the
// interpolation then stretched over missing measurements.
func gridGap(grid []units.Bytes, m map[units.Bytes]units.Seconds, size units.Bytes) bool {
	if len(grid) == 0 || len(m) == 0 {
		return false
	}
	var cb [stackGrid]bool // as in interpSize
	covered := cb[:0]
	all := true
	any := false
	for _, s := range grid {
		v, ok := m[s]
		ok = ok && v > 0
		covered = append(covered, ok)
		any = any || ok
		all = all && ok
	}
	if all {
		return false
	}
	if !any {
		return true
	}
	if size <= grid[0] {
		return !covered[0]
	}
	if size >= grid[len(grid)-1] {
		return !covered[len(grid)-1]
	}
	// sort.Search finds the smallest declared size >= size.
	hi := sort.Search(len(grid), func(i int) bool { return grid[i] >= size })
	if grid[hi] == size {
		return !covered[hi]
	}
	return !covered[hi-1] || !covered[hi]
}

// CoverageGap reports whether a Time lookup for routine at size had to
// extrapolate across a hole in the declared size grid (a degraded answer
// worth a quality defect). A routine absent from the table is not a grid
// gap — that is a missing-routine defect, recorded elsewhere.
func (t *Table) CoverageGap(routine mpi.Routine, size units.Bytes) bool {
	m, ok := t.PerOp[routine]
	if !ok {
		return false
	}
	return gridGap(t.Sizes, m, size)
}

// NBGap reports whether the Eq. 1 non-blocking in-flight lookups at size
// bridge a hole in either the intra- or inter-node fit's size grid.
func (t *Table) NBGap(size units.Bytes) bool {
	return gridGap(t.Sizes, t.NBIntra.InFlight, size) || gridGap(t.Sizes, t.NBInter.InFlight, size)
}

// Routines lists the measured routines in deterministic order.
func (t *Table) Routines() []mpi.Routine {
	out := make([]mpi.Routine, 0, len(t.PerOp))
	for rt := range t.PerOp {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// benchmark is one benchmark of the suite, as a bit of a selection.
type benchmark uint16

const (
	pingPong      benchmark = 1 << iota // PerOp Send and Recv
	pingPing                            // PerOp PingPing
	sendrecv                            // PerOp Sendrecv
	bcast                               // PerOp Bcast
	reduce                              // PerOp Reduce
	allreduce                           // PerOp Allreduce
	multiSendrecv                       // NBIntra and NBInter

	allBenchmarks = 1<<iota - 1
)

// pricedBy names the benchmark whose measurements price routine rt, 0 for
// none. PingPing prices no routine: only the full suite keeps its cells.
func pricedBy(rt mpi.Routine) benchmark {
	switch rt {
	case mpi.RoutineIsend, mpi.RoutineIrecv, mpi.RoutineWaitall:
		return multiSendrecv
	case mpi.RoutineSend, mpi.RoutineRecv:
		return pingPong
	case mpi.RoutineSendrecv:
		return sendrecv
	case mpi.RoutineBcast:
		return bcast
	case mpi.RoutineReduce:
		return reduce
	case mpi.RoutineAllreduce:
		return allreduce
	}
	return 0
}

// pairing is how a pairwise benchmark matches ranks: distant (pairDistant)
// or adjacent (pairAdjacent).
type pairing uint8

const (
	distant pairing = iota
	adjacent
)

func (p pairing) partner(id, ranks int) int {
	if p == distant {
		return pairDistant(id, ranks)
	}
	return pairAdjacent(id, ranks)
}

// cell names one measurement of a table up to its ranks: the benchmark,
// the pairing and in-flight depth x of a pairwise one (zero otherwise),
// and the message size.
type cell struct {
	bench benchmark
	pair  pairing
	x     int
	size  units.Bytes
}

// groupKey names one group's makespan in a pairwise measurement: the cell
// and the group's shape id in the suite.
type groupKey struct {
	cell
	shape int
}

// group is one independent group of ranks in a pairwise benchmark (see
// planGroups): its ranks, ascending, and its shape's id in the suite.
type group struct {
	ranks []int
	shape int
}

// measureFunc simulates program on a clean world of the table's machine and
// rank count and returns the makespan of cell. With groups nil every rank
// runs it; otherwise it may run each group of ranks alone and return the
// slowest group's makespan — the same number, for groups from planGroups.
type measureFunc func(c cell, groups []group, program func(r *mpi.Rank)) (units.Seconds, error)

// Suite is one machine's IMB runs: the benchmarks that price its routines,
// at the sizes they are read, and every pairwise-group measurement its
// tables have made. A pairwise benchmark is simulated one group of ranks
// per distinct shape rather than as the whole world (see planGroups), and a
// group's history is a function of its shape — its P2P prices — and not of
// the world's size, so a group's makespan measured for one table is every
// other table's too: the suite simulates each (benchmark, pairing, x, size,
// shape) once, whatever rank counts it builds tables at. Its tables are the
// full suite's, less the benchmarks it does not select and the simulated
// cells outside its span.
//
// A Suite is safe for concurrent use. It keeps every group measurement it
// has made: it is meant to live as long as one gather of tables.
type Suite struct {
	m      *arch.Machine
	sel    benchmark
	lo, hi units.Bytes // Demand's span; hi 0 for every size

	mu     sync.Mutex
	shapes [][]int                    // planGroups shapes; a shape id indexes it
	memo   map[groupKey]units.Seconds // one group's makespan per key

	sims atomic.Int64 // worlds and groups simulated, for benchmarks
}

// memoHint sizes a suite's memo when its first group is measured — not
// before, so a suite whose tables all come from a store costs one small
// allocation: at DefaultSizes a full table remembers 114–247 group
// measurements, and a NAS-MZ gather's four served tables 56 (hydra) to 196
// (westmere-x5670).
const memoHint = 256

// Demand is what a suite's tables are read for: the routines they price
// and the message sizes they are looked up at. Its zero value is the full
// suite at every size.
type Demand struct {
	// Routines selects the benchmarks that price them: multi-Sendrecv's
	// intra and inter Eq. 1 fits for Isend, Irecv and Waitall (with
	// PingPing where the inter fit's x = 1 needs it), PingPong for Send
	// and Recv, Sendrecv's ring for Sendrecv, and each collective's own
	// benchmark, a closed form. A routine no benchmark prices is ignored.
	// No routines means every benchmark: the full suite.
	Routines []mpi.Routine
	// MinBytes and MaxBytes (MinBytes ≤ MaxBytes) span the message sizes
	// the tables are read at; MaxBytes 0 means every size. The simulated
	// benchmarks are then measured only from the largest grid size ≤
	// MinBytes to the smallest ≥ MaxBytes — the pairs a lookup in the span
	// interpolates between or clamps to, so it reads what a full table
	// would — and at the grid's last size, whose fit sets Eq. 1's
	// overheads. The closed-form cells are filled at every size.
	MinBytes, MaxBytes units.Bytes
}

// NewSuite returns a suite for machine m whose tables measure what d asks.
func NewSuite(m *arch.Machine, d Demand) *Suite {
	sel := benchmark(allBenchmarks)
	if len(d.Routines) > 0 {
		sel = 0
		for _, rt := range d.Routines {
			sel |= pricedBy(rt)
		}
	}
	return &Suite{m: m, sel: sel, lo: d.MinBytes, hi: d.MaxBytes}
}

// span returns the indices of the first and last of sizes (ascending) that
// the suite's span brackets.
func (s *Suite) span(sizes []units.Bytes) (first, last int) {
	first, last = 0, len(sizes)-1
	if s.hi == 0 {
		return first, last
	}
	for i, size := range sizes {
		if size <= s.lo {
			first = i
		}
	}
	for i := last; i >= 0 && sizes[i] >= s.hi; i-- {
		last = i
	}
	return first, last
}

// Run executes the full suite on machine m with the given rank count and
// size grid (nil for DefaultSizes) and returns the parameter table: a
// one-table Suite. Its few hundred measurements are independent
// simulations run one after another on one world, reset before each.
func Run(m *arch.Machine, ranks int, sizes []units.Bytes) (*Table, error) {
	return NewSuite(m, Demand{}).Table(ranks, sizes)
}

// Table measures the suite's benchmarks at the given rank count and size
// grid (nil for DefaultSizes) on one world, reset before each simulation.
// A pairwise benchmark runs one group per distinct shape — hydra's full
// 64-rank table spawns 5 472 ranks, not 12 160 — and a group whose
// measurement another table of the suite has already made is not
// simulated again: once a NAS-MZ suite has built hydra's 128-rank table,
// its 64-, 32- and 16-rank tables simulate nothing. The collective cells
// are netmodel's closed forms and are never simulated. A suite with a span
// leaves the simulated benchmarks' cells outside it absent, while the
// table's Sizes stay the declared grid.
func (s *Suite) Table(ranks int, sizes []units.Bytes) (*Table, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("imb: need at least 2 ranks, got %d", ranks)
	}
	w, err := mpi.NewWorld(s.m, ranks)
	if err != nil {
		return nil, err
	}
	return s.table(ranks, sizes, func(c cell, groups []group, program func(r *mpi.Rank)) (units.Seconds, error) {
		if groups == nil {
			s.sims.Add(1)
			w.Reset()
			return w.Run(program)
		}
		var span units.Seconds
		for _, g := range groups {
			k := groupKey{c, g.shape}
			s.mu.Lock()
			el, ok := s.memo[k]
			s.mu.Unlock()
			if !ok {
				// Simulated outside the lock: two tables may both miss
				// a key and both simulate it, to the same value.
				s.sims.Add(1)
				w.Reset()
				var err error
				if el, err = w.RunRanks(g.ranks, program); err != nil {
					return 0, err
				}
				s.mu.Lock()
				if s.memo == nil {
					s.memo = make(map[groupKey]units.Seconds, memoHint)
				}
				s.memo[k] = el
				s.mu.Unlock()
			}
			span = max(span, el)
		}
		return span, nil
	})
}

// table builds one table of the suite's benchmarks over any way of taking
// one measurement. Every measurement runs the one program the table builds,
// which runs whichever cell is being measured (cell.run).
func (s *Suite) table(ranks int, sizes []units.Bytes, measure measureFunc) (*Table, error) {
	if sizes == nil {
		sizes = DefaultSizes()
	}
	has := func(b benchmark) bool { return s.sel&b != 0 }
	first, last := s.span(sizes)
	// simulated is how many sizes the simulated benchmarks measure: the
	// span, and the grid's last size.
	simulated := last - first + 1
	if last < len(sizes)-1 {
		simulated++
	}
	t := &Table{
		Machine: s.m.Name,
		Ranks:   ranks,
		Sizes:   sizes,
		PerOp:   map[mpi.Routine]map[units.Bytes]units.Seconds{},
		NBIntra: NBFit{InFlight: make(map[units.Bytes]units.Seconds, simulated)},
		NBInter: NBFit{InFlight: make(map[units.Bytes]units.Seconds, simulated)},
	}
	multiNode := s.m.NodesFor(ranks) > 1
	md := netmodel.New(s.m)
	distantGroups := s.planGroups(md, ranks, distant)
	adjacentGroups := s.planGroups(md, ranks, adjacent)

	// put records one cell of a routine that has n of them.
	put := func(rt mpi.Routine, n int, size units.Bytes, v units.Seconds) {
		if t.PerOp[rt] == nil {
			t.PerOp[rt] = make(map[units.Bytes]units.Seconds, n)
		}
		t.PerOp[rt][size] = v
	}

	// --- collectives: md's closed forms (see the package doc). ---
	for _, c := range []struct {
		b    benchmark
		rt   mpi.Routine
		cost func(*netmodel.Model, units.Bytes, int) units.Seconds
	}{
		{bcast, mpi.RoutineBcast, (*netmodel.Model).Bcast},
		{reduce, mpi.RoutineReduce, (*netmodel.Model).Reduce},
		{allreduce, mpi.RoutineAllreduce, (*netmodel.Model).Allreduce},
	} {
		if has(c.b) {
			for _, size := range sizes {
				put(c.rt, len(sizes), size, c.cost(md, size, ranks))
			}
		}
	}

	var cur cell
	program := func(r *mpi.Rank) { cur.run(r, ranks) }
	run := func(c cell, groups []group) (units.Seconds, error) {
		cur = c
		return measure(c, groups, program)
	}
	for i, size := range sizes {
		if (i < first || i > last) && i != len(sizes)-1 {
			continue
		}
		// --- blocking point-to-point: PingPong (half round trip). ---
		if has(pingPong) {
			pp, err := run(cell{bench: pingPong, pair: distant, size: size}, distantGroups)
			if err != nil {
				return nil, err
			}
			put(mpi.RoutineSend, simulated, size, pp/(2*iterations))
			put(mpi.RoutineRecv, simulated, size, pp/(2*iterations))
		}

		// --- PingPing: both partners send simultaneously. It is also
		// the inter fit's x = 1 point. ---
		var pping units.Seconds
		if has(pingPing) || has(multiSendrecv) && multiNode {
			el, err := run(cell{bench: pingPing, pair: distant, size: size}, distantGroups)
			if err != nil {
				return nil, err
			}
			pping = el / iterations
			if has(pingPing) {
				put(PingPing, simulated, size, pping)
			}
		}

		// --- Sendrecv ring. ---
		if has(sendrecv) {
			sr, err := run(cell{bench: sendrecv, size: size}, nil)
			if err != nil {
				return nil, err
			}
			put(mpi.RoutineSendrecv, simulated, size, sr/iterations)
		}

		// --- multi-Sendrecv: x in-flight Isend/Irecv pairs + Waitall,
		// measured for same-node pairs and (when the job spans nodes)
		// cross-node pairs — IMB's intra/inter cluster modes. ---
		if has(multiSendrecv) {
			a, b, err := multiSendrecvFit(run, adjacentGroups, size, adjacent, nil)
			if err != nil {
				return nil, fmt.Errorf("imb: multi-Sendrecv intra fit at %d B: %w", size, err)
			}
			t.NBIntra.Overhead = a
			t.NBIntra.InFlight[size] = b
			if multiNode {
				// PingPing is the inter fit's x = 1 point: the same program
				// (Isend, Irecv, Waitall, tag i) on the same distant groups.
				a, b, err = multiSendrecvFit(run, distantGroups, size, distant, []float64{pping})
				if err != nil {
					return nil, fmt.Errorf("imb: multi-Sendrecv inter fit at %d B: %w", size, err)
				}
			}
			t.NBInter.Overhead = a
			t.NBInter.InFlight[size] = b
		}
	}

	return t, nil
}

// run is cell c's benchmark body on rank r of a world of ranks ranks:
// iterations rounds of PingPong (a round trip with the partner), PingPing
// or multi-Sendrecv (x Isend/Irecv pairs with the partner, then a Waitall;
// PingPing is x = 1), or the Sendrecv ring.
func (c cell) run(r *mpi.Rank, ranks int) {
	if c.bench == sendrecv {
		next := (r.ID() + 1) % ranks
		prev := (r.ID() + ranks - 1) % ranks
		for i := 0; i < iterations; i++ {
			r.Sendrecv(next, c.size, prev, c.size, i)
		}
		return
	}
	partner := c.pair.partner(r.ID(), ranks)
	if partner < 0 {
		return
	}
	if c.bench == pingPong {
		for i := 0; i < iterations; i++ {
			if r.ID() < partner {
				r.Send(partner, c.size, i)
				r.Recv(partner, c.size, i)
			} else {
				r.Recv(partner, c.size, i)
				r.Send(partner, c.size, i)
			}
		}
		return
	}
	x := max(c.x, 1)
	// On the stack: Waitall does not keep its slice, and this body runs
	// once per rank per measurement.
	var buf [2 * maxMultiX]*mpi.Request
	for i := 0; i < iterations; i++ {
		reqs := buf[:0]
		for j := 0; j < x; j++ {
			reqs = append(reqs, r.Isend(partner, c.size, i*x+j))
			reqs = append(reqs, r.Irecv(partner, c.size, i*x+j))
		}
		r.Waitall(reqs...)
	}
}

// pairDistant pairs rank i with i±half (IMB's cross-cluster pattern: on a
// multi-node job the partners land on different nodes). Odd trailing ranks
// sit out.
func pairDistant(id, ranks int) int {
	half := ranks / 2
	if half == 0 {
		return -1
	}
	if id < half {
		return id + half
	}
	if id < 2*half {
		return id - half
	}
	return -1
}

// pairAdjacent pairs even rank i with i+1 (same node whenever a node holds
// at least two ranks): IMB's intra-cluster pattern.
func pairAdjacent(id, ranks int) int {
	if id%2 == 0 {
		if id+1 < ranks {
			return id + 1
		}
		return -1
	}
	return id - 1
}

// planGroups splits a pairwise benchmark — every rank talks only to its
// partner under pair — into independent groups and returns one ascending rank set
// per distinct group shape, with the shape's id in the suite: the groups
// measureFunc needs to simulate.
//
// A group is a connected set of nodes under "a rank's node is joined to its
// partner's", with every rank on them. Two groups share no message, and no
// NIC or shared-memory bus (those are per node), so a group run alone has
// exactly the history it has inside the full run, and the full makespan is
// the slowest group's. A group's shape is, per rank in ascending order, its
// partner's position and its node's position in the group, then the hops
// between every ordered pair of its nodes: all netmodel.P2P prices, so
// groups of one shape have bit-identical histories. Groups in which nobody
// has a partner finish at time 0 and are left out.
//
// Nothing in a shape depends on the world's size, so a shape found at one
// rank count is the same shape at any other: the suite numbers shapes
// across its tables (shapeID).
func (s *Suite) planGroups(md *netmodel.Model, ranks int, pair pairing) []group {
	nodes := md.NodeOf(ranks-1) + 1
	// One slab for every scratch slice below: the nodes' roots, the
	// group's ranks and nodes, each rank's and node's position in them,
	// and the group's shape.
	slab := make([]int, 3*nodes+2*ranks+1+2*ranks+nodes*nodes)
	root, slab := slab[:nodes], slab[nodes:]
	members, pos, slab := slab[:0:ranks], slab[ranks:2*ranks], slab[2*ranks:]
	gnodes, nodeAt, shape := slab[:0:nodes], slab[nodes:2*nodes], slab[2*nodes:2*nodes]

	// Union-find over nodes; a group's root is its lowest node.
	for n := range root {
		root[n] = n
	}
	find := func(n int) int {
		for root[n] != n {
			root[n] = root[root[n]]
			n = root[n]
		}
		return n
	}
	for id := 0; id < ranks; id++ {
		if p := pair.partner(id, ranks); p >= 0 {
			a, b := find(md.NodeOf(id)), find(md.NodeOf(p))
			root[max(a, b)] = min(a, b)
		}
	}
	for n := range root {
		root[n] = find(n)
	}

	var groups []group
	for r := range root {
		if root[r] != r {
			continue
		}
		members, gnodes = members[:0], gnodes[:0]
		for n := r; n < nodes; n++ {
			if root[n] != r {
				continue
			}
			nodeAt[n] = len(gnodes)
			gnodes = append(gnodes, n)
			for id := n * md.RanksPerNode; id < min((n+1)*md.RanksPerNode, ranks); id++ {
				pos[id] = len(members)
				members = append(members, id)
			}
		}
		paired := false
		shape = append(shape[:0], len(members))
		for _, id := range members {
			p := pair.partner(id, ranks)
			if p >= 0 {
				paired = true
				p = pos[p]
			}
			shape = append(shape, p, nodeAt[md.NodeOf(id)])
		}
		if !paired {
			continue
		}
		for _, a := range gnodes {
			for _, b := range gnodes {
				shape = append(shape, md.Topo.Hops(a, b))
			}
		}
		id := s.shapeID(shape)
		if !slices.ContainsFunc(groups, func(g group) bool { return g.shape == id }) {
			groups = append(groups, group{ranks: slices.Clone(members), shape: id})
		}
	}
	return groups
}

// shapeID returns shape's index in the suite's list of shapes, adding a
// copy of it if it is new.
func (s *Suite) shapeID(shape []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sh := range s.shapes {
		if slices.Equal(sh, shape) {
			return i
		}
	}
	s.shapes = append(s.shapes, slices.Clone(shape))
	return len(s.shapes) - 1
}

// multiSendrecvFit measures the multi-Sendrecv benchmark over the x sweep
// with the given pairing, and its groups, and returns the Eq. 1
// (overhead, in-flight) fit. known holds the per-iteration times of the
// sweep's first depths where another benchmark has already measured them.
func multiSendrecvFit(run func(cell, []group) (units.Seconds, error), groups []group, size units.Bytes, pair pairing, known []float64) (a, b units.Seconds, err error) {
	var xs, xTimes [len(multiXs)]float64
	copy(xTimes[:], known)
	for i, x := range multiXs {
		xs[i] = float64(x)
		if i < len(known) {
			continue
		}
		el, err := run(cell{bench: multiSendrecv, pair: pair, x: x, size: size}, groups)
		if err != nil {
			return 0, 0, err
		}
		xTimes[i] = el / iterations
	}
	a, b, err = stats.LinearFit(xs[:], xTimes[:])
	if err != nil {
		return 0, 0, err
	}
	if a < 0 {
		a = 0
	}
	if b <= 0 {
		b = xTimes[0] // degenerate fit: fall back to the x=1 time
	}
	return a, b, nil
}
