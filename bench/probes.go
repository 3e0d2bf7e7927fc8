package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	swapp "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/durable"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/units"
)

// probeSizes fixes the walked request and every probe's iteration count.
// Counts are fixed, never durations, so two commits do identical work.
// The metric names carry the default sizes; tests run the same drivers
// with tiny ones.
type probeSizes struct {
	walk     walkSpec
	handoffs int  // des: signal round trips between two processes
	mpiIters int  // mpi: calls per rank on a 16-rank ring
	simRanks int  // ranks of the imb table and the nas class-C profile
	classD   bool // time a class-D profile too (false: class C again)
	reps     int  // repetitions of each millisecond-scale probe
	calls    int  // repetitions of each microsecond-scale probe
	appends  int  // fsynced 64 KiB journal appends
	warm     cell // the cheap request the store, server and jobs probes serve
	jobs     int  // async jobs of the journal probe
}

var defaultProbes = probeSizes{
	walk:     r0,
	handoffs: 20000,
	mpiIters: 500,
	simRanks: 64,
	classD:   true,
	reps:     3,
	calls:    2000,
	appends:  40,
	warm:     cell{primedTarget, "LU-MZ", "C", 16},
	jobs:     2,
}

// timed calls f n times and returns the median duration of a call in
// nanoseconds and the allocations per call (MemStats delta over all calls,
// so the timing loop's own bookkeeping is included and constant).
func timed(n int, f func() error) (ns, allocs float64, err error) {
	d := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range d {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		d[i] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&m1)
	return median(d), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// probes runs every single-layer probe and returns its metrics. wr is the
// finished layer walk, whose pipeline the projection-stage probes reuse.
func probes(e *env, ps probeSizes, wr *walkResult) (map[string]float64, error) {
	m := map[string]float64{}
	hydra, err := arch.Get(arch.Hydra)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return probeDES(m, ps) },
		func() error { return probeMPI(m, ps, hydra) },
		func() error { return probeSuites(m, ps, hydra) },
		func() error { return probeProjection(m, ps, wr) },
		func() error { return probeStore(m, ps) },
		func() error { return probeServer(m, e, ps) },
		func() error { return probeWAL(m, e, ps) },
		func() error { return probeJobs(m, e, ps) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeDES times the simulator's process hand-off: two processes
// ping-ponging one-shot signals, two hand-offs per round trip.
func probeDES(m map[string]float64, ps probeSizes) error {
	ns, allocs, err := timed(ps.reps, func() error {
		k := des.NewKernel()
		ping := make([]*des.Signal, ps.handoffs)
		pong := make([]*des.Signal, ps.handoffs)
		for i := range ping {
			ping[i], pong[i] = k.NewSignalKind("ping", i), k.NewSignalKind("pong", i)
		}
		k.Spawn("a", func(p *des.Proc) {
			for i := range ping {
				ping[i].Fire()
				p.WaitSignal(pong[i])
			}
		})
		k.Spawn("b", func(p *des.Proc) {
			for i := range ping {
				p.WaitSignal(ping[i])
				pong[i].Fire()
			}
		})
		return k.Run()
	})
	if err != nil {
		return fmt.Errorf("des probe: %w", err)
	}
	m["des.handoff_ns"] = ns / float64(2*ps.handoffs)
	m["des.handoff_allocs"] = allocs / float64(2*ps.handoffs)
	return nil
}

// msgCounter counts the messages the simulator says it moved.
type msgCounter struct{ msgs int }

func (c *msgCounter) OnCompute(int, units.Seconds) {}
func (c *msgCounter) OnRoutine(_ int, ev mpi.RoutineEvent) {
	c.msgs += ev.Count
}

// probeMPI times one simulated MPI call per rank on a 16-rank ring on
// hydra: a neighbour Sendrecv and an Allreduce of 8 KiB.
func probeMPI(m map[string]float64, ps probeSizes, hydra *arch.Machine) error {
	const ranks, size = 16, 8 * units.KiB
	var counter msgCounter
	ring := func(count bool, program func(r *mpi.Rank)) func() error {
		return func() error {
			w, err := mpi.NewWorld(hydra, ranks)
			if err != nil {
				return err
			}
			if count {
				counter = msgCounter{}
				w.SetObserver(&counter)
			}
			_, err = w.Run(func(r *mpi.Rank) {
				for i := 0; i < ps.mpiIters; i++ {
					program(r)
				}
			})
			return err
		}
	}
	perCall := float64(ranks * ps.mpiIters)
	ns, _, err := timed(ps.reps, ring(false, func(r *mpi.Rank) {
		r.Sendrecv((r.ID()+1)%ranks, size, (r.ID()+ranks-1)%ranks, size, 0)
	}))
	if err != nil {
		return fmt.Errorf("mpi sendrecv probe: %w", err)
	}
	m["mpi.sendrecv_ns"] = ns / perCall
	if ns, _, err = timed(ps.reps, ring(false, func(r *mpi.Rank) { r.Allreduce(size) })); err != nil {
		return fmt.Errorf("mpi allreduce probe: %w", err)
	}
	m["mpi.allreduce_ns"] = ns / perCall
	if err := ring(true, func(r *mpi.Rank) {
		r.Sendrecv((r.ID()+1)%ranks, size, (r.ID()+ranks-1)%ranks, size, 0)
	})(); err != nil {
		return fmt.Errorf("mpi message count: %w", err)
	}
	m["mpi.msgs"] = float64(counter.msgs)
	return nil
}

// probeSuites times the benchmark suites and one application profile on
// hydra: what the characterisation and profile layers cache.
func probeSuites(m map[string]float64, ps probeSizes, hydra *arch.Machine) error {
	ns, allocs, err := timed(1, func() error { _, err := imb.Run(hydra, ps.simRanks, nil); return err })
	if err != nil {
		return fmt.Errorf("imb probe: %w", err)
	}
	m["imb.table_ms.64"], m["imb.table_allocs.64"] = ns/1e6, allocs

	if ns, _, err = timed(ps.reps, func() error { _, err := spec.RunSuite(hydra, true); return err }); err != nil {
		return fmt.Errorf("spec probe: %w", err)
	}
	m["spec.suite_us"] = ns / 1e3

	profile := func(c nas.Class) func() error {
		return func() error {
			_, err := nas.Run(nas.Config{Bench: nas.BT, Class: c, Ranks: ps.simRanks}, hydra)
			return err
		}
	}
	if ns, allocs, err = timed(ps.reps, profile(nas.ClassC)); err != nil {
		return fmt.Errorf("nas class-C probe: %w", err)
	}
	m["nas.profile_ms.bt_c_64"], m["nas.profile_allocs.bt_c_64"] = ns/1e6, allocs
	d := nas.ClassC
	if ps.classD {
		d = nas.ClassD
	}
	if ns, _, err = timed(1, profile(d)); err != nil {
		return fmt.Errorf("nas class-D probe: %w", err)
	}
	m["nas.profile_ms.bt_d_64"] = ns / 1e6
	return nil
}

// probeProjection times the projection stages on the walk's pipeline: the
// GA surrogate search (with its exact evaluation and memo counts, read
// from an obs scope), the communication projection, and rendering.
func probeProjection(m map[string]float64, ps probeSizes, wr *walkResult) error {
	ck := ps.walk.cell.Ranks
	scope := obs.New("probe")
	pipe, err := core.NewPipelineCtx(context.Background(), wr.pipe.Base, wr.pipe.Target, ps.walk.counts,
		core.Options{Workers: 1, Data: wr.data, Obs: scope})
	if err != nil {
		return fmt.Errorf("ga probe: %w", err)
	}
	var comp *core.ComputeProjection
	ns, _, err := timed(ps.reps, func() (err error) { comp, err = pipe.ProjectCompute(wr.app, ck); return err })
	if err != nil {
		return fmt.Errorf("ga probe: %w", err)
	}
	m["ga.search_ms"] = ns / 1e6
	evals, _ := scope.Metrics().Counter("ga.evaluations")
	hits, _ := scope.Metrics().Counter("ga.cache_hits")
	m["ga.evaluations"] = float64(evals) / float64(ps.reps)
	if evals+hits > 0 {
		m["ga.memo_hit_ratio"] = float64(hits) / float64(evals+hits)
	}

	if ns, _, err = timed(ps.calls/10, func() error {
		_, err := wr.pipe.ProjectComm(wr.app, ck, comp.SpeedupRatio())
		return err
	}); err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}
	m["core.comm_us"] = ns / 1e3

	ns, allocs, err := timed(ps.calls, func() error {
		_, err := report.MarshalProjection(wr.val.Proj, wr.val)
		return err
	})
	if err != nil {
		return fmt.Errorf("render probe: %w", err)
	}
	m["report.render_us"], m["report.render_allocs"] = ns/1e3, allocs
	return nil
}

// probeStore times a projection whose every layer is already in a
// core.Store: the store's read path plus the projection's assembly.
func probeStore(m map[string]float64, ps probeSizes) error {
	req := swapp.Request{Target: ps.warm.Target, Bench: nas.Benchmark(ps.warm.Bench), Class: nas.Class(ps.warm.Class[0]),
		Ranks: ps.warm.Ranks, Store: core.NewStore(core.StoreConfig{})}
	project := func() error { _, err := swapp.ProjectContext(context.Background(), req); return err }
	if err := project(); err != nil {
		return fmt.Errorf("store probe: priming: %w", err)
	}
	ns, _, err := timed(ps.reps, project)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	m["core.store_warm_ms"] = ns / 1e6
	return nil
}

// probeServer times the serving layer on one cached result: a hit through
// the handler, the marginal cost of one more item in a batch, and — the
// one place the benchmark opens a socket — the same hit over loopback
// HTTP, which is what every other number deliberately leaves out.
func probeServer(m map[string]float64, e *env, ps probeSizes) error {
	srv, err := e.newServer(nil, "")
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	body := ps.warm.body()
	if _, err := post(h, nil, "/v1/project", body); err != nil {
		return fmt.Errorf("server probe: priming: %w", err)
	}
	ns, allocs, err := timed(ps.calls, func() error { _, err := post(h, nil, "/v1/project", body); return err })
	if err != nil {
		return fmt.Errorf("server hit probe: %w", err)
	}
	m["server.hit_us"], m["server.hit_allocs"] = ns/1e3, allocs

	batch := func(items int) func() error {
		doc := []byte(`{"requests":[` + strings.Repeat(string(body)+",", items-1) + string(body) + `]}`)
		return func() error { _, err := post(h, nil, "/v1/batch", doc); return err }
	}
	one, _, err := timed(ps.calls/10, batch(1))
	if err != nil {
		return fmt.Errorf("server batch probe: %w", err)
	}
	full, _, err := timed(ps.calls/10, batch(batchItems))
	if err != nil {
		return fmt.Errorf("server batch probe: %w", err)
	}
	m["server.batch_item_us"] = (full - one) / float64(batchItems-1) / 1e3

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("server loopback probe: %w", err)
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{}
	url := "http://" + ln.Addr().String() + "/v1/project"
	ns, _, err = timed(ps.calls/10, func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	})
	client.CloseIdleConnections()
	cerr := hs.Close()
	<-served
	if err != nil {
		return fmt.Errorf("server loopback probe: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("server loopback probe: closing: %w", cerr)
	}
	m["server.loopback_rtt_us"] = ns / 1e3
	return nil
}

// probeWAL times one 64 KiB journal append with an fsync per record (the
// default) and with fsyncs batched a second apart.
func probeWAL(m map[string]float64, e *env, ps probeSizes) error {
	appendUS := func(every time.Duration) (float64, error) {
		dir, err := os.MkdirTemp(e.tmp, "wal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		wal, err := durable.Open(dir, durable.Options{SyncEvery: every})
		if err != nil {
			return 0, err
		}
		rec := bytes.Repeat([]byte{0xa5}, 64<<10)
		ns, _, err := timed(ps.appends, func() error { return wal.Append(rec) })
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		return ns / 1e3, err
	}
	var err error
	if m["durable.append_sync_us"], err = appendUS(0); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if m["durable.append_nosync_us"], err = appendUS(time.Second); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}

// probeJobs runs a few async jobs on a durable server and measures what
// they leave in the journal (exact counts) and how long a restart on that
// journal takes.
func probeJobs(m map[string]float64, e *env, ps probeSizes) error {
	dir, err := os.MkdirTemp(e.tmp, "jobs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scope := obs.New("jobs-probe")
	srv, err := e.newServer(scope, dir)
	if err != nil {
		return fmt.Errorf("jobs probe: %w", err)
	}
	sess := &session{env: e, srv: srv, h: srv.Handler()}
	for i := 0; i < ps.jobs; i++ {
		c := ps.warm
		c.Ranks >>= i // distinct requests: each job searches afresh
		if _, err := durableJobs.do(sess, op{cell: c, body: c.body()}, nil); err != nil {
			srv.Close()
			return fmt.Errorf("jobs probe: %w", err)
		}
	}
	srv.Close()
	var journal int64
	err = filepath.Walk(filepath.Join(dir, "journal"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			journal += info.Size()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("jobs probe: sizing journal: %w", err)
	}
	records, _ := scope.Metrics().Counter("durable.wal_records")
	m["jobs.journal_mb_per_op"] = float64(journal) / 1e6 / float64(ps.jobs)
	m["jobs.journal_records_per_op"] = float64(records) / float64(ps.jobs)

	t0 := time.Now()
	again, err := e.newServer(nil, dir)
	m["jobs.restart_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return fmt.Errorf("jobs probe: restart: %w", err)
	}
	again.Close()
	return nil
}
