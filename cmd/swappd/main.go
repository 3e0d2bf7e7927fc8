// Command swappd serves the SWAPP pipeline as a shared projection service:
// an HTTP JSON API over the library with a content-addressed result cache,
// singleflight de-duplication, bounded concurrency with an admission
// queue, per-request deadlines, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	swappd -addr localhost:8080
//
// Endpoints (see internal/server and DESIGN.md §10):
//
//	POST /v1/project /v1/validate /v1/batch /v1/jobs
//	GET  /v1/jobs/{id} /v1/jobs/{id}/events /v1/jobs/{id}/result
//	GET  /healthz /readyz /metrics /metrics.json /debug/pprof/
//
// With -self and -peers set, replicas order themselves for each (base,
// target) group by rendezvous hashing and forward what they do not hold to
// the group's owning replica (see DESIGN.md §10.3); a dead peer's groups go
// to the next replica in the group's order, the same one from every entry
// point.
//
// With -data-dir set, every job submission is journalled there; the
// journal is all the directory holds. A replica stops one way — SIGTERM
// cancels unfinished jobs and exits, kill -9 just exits — and comes back
// one way: restarted on the same directory it starts cold, rebuilding
// characterisation on demand as a fresh replica does, and re-runs the jobs
// that never finished under their original IDs (see DESIGN.md §10.7).
//
// Example:
//
//	curl -s -X POST localhost:8080/v1/project \
//	  -d '{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":64}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// evalOverride substitutes the evaluation function in tests; nil in
// production.
var evalOverride server.EvalFunc

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run is the daemon body, factored for tests: parse flags, listen, serve
// until a signal arrives on sig (a fresh SIGTERM/SIGINT subscription when
// nil), then drain. It prints the bound address to stdout so callers of
// -addr :0 can find the port.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("swappd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
		workers     = fs.Int("workers", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "admission queue depth beyond running evaluations (0 = 2x workers)")
		cacheSize   = fs.Int("cache", 128, "result cache capacity, in projections")
		timeout     = fs.Duration("timeout", 5*time.Minute, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 10*time.Minute, "upper bound on client-requested deadlines")
		evalWorkers = fs.Int("eval-workers", 0, "engine worker pool per evaluation (0 = GOMAXPROCS); does not affect the numbers")
		grace       = fs.Duration("grace", 30*time.Second, "drain deadline after SIGTERM/SIGINT")
		self        = fs.String("self", "", "this replica's advertised base URL in peer-aware mode (e.g. http://10.0.0.1:8080)")
		peers       = fs.String("peers", "", "comma-separated base URLs of the other replicas; with -self, enables rendezvous-hash request routing (an unreachable replica is routed past, and found again, on its own)")
		jobsActive  = fs.Int("jobs-active", 0, "max concurrently running async jobs (0 = default 2)")
		jobsQueued  = fs.Int("jobs-queued", 0, "async jobs waiting beyond the running ones (0 = default 4x active)")
		jobsRetain  = fs.Int("jobs-retain", 0, "finished async jobs kept for polling (0 = default 64)")
		dataDir     = fs.String("data-dir", "", "durable state directory: the WAL job journal; a restart on it — after SIGTERM or kill -9 alike — re-runs unfinished jobs under their original IDs, from a cold store (empty = in-memory only)")
		walSync     = fs.Duration("wal-sync", 0, "batch journal fsyncs to at most one per interval (0 = sync every record, the kill -9-safe default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The ring needs both halves; either one alone would serve standalone
	// without saying so.
	peerList := splitPeers(*peers)
	if (*self == "") != (len(peerList) == 0) {
		missing := "-peers"
		if *self == "" {
			missing = "-self"
		}
		fmt.Fprintf(stderr, "swappd: peer-aware mode needs both -self and -peers; %s is missing\n", missing)
		return 2
	}

	scope := obs.New("swappd")
	defer scope.End()
	srv, err := server.NewDurable(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		EvalWorkers:    *evalWorkers,
		Obs:            scope,
		Eval:           evalOverride,

		Self:  *self,
		Peers: peerList,

		JobsMaxActive: *jobsActive,
		JobsMaxQueued: *jobsQueued,
		JobsRetain:    *jobsRetain,

		DataDir:      *dataDir,
		WALSyncEvery: *walSync,
	})
	if err != nil {
		fmt.Fprintf(stderr, "swappd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "swappd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "swappd listening on %s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if sig == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(ch)
		sig = ch
	}

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "swappd: serve: %v\n", err)
		return 1
	case <-sig:
	}

	// Drain: flip readiness so load balancers stop routing here, stop job
	// submissions and cancel unfinished jobs (a restart on -data-dir re-runs
	// them; without one their clients resubmit), then let in-flight requests
	// finish under the grace deadline.
	fmt.Fprintln(stderr, "swappd: signal received, draining")
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	srv.Close()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "swappd: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "swappd: drained")
	return 0
}

// splitPeers parses the comma-separated -peers list, dropping empties so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newHTTPServer hardens the listener against slow or hostile clients: a
// stalled request line, drip-fed body, or oversized header set cannot pin
// a connection goroutine forever. WriteTimeout stays unset on purpose: a
// job's /events stream stays open until the job ends, which no fixed write
// deadline can bound. Evaluations themselves take about a second at most,
// and the per-request deadline bounds them.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}
