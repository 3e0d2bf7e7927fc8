GO ?= go

.PHONY: check build vet fmt invariants test race bench benchmark fuzz cover serve-smoke cluster-smoke crash-smoke chaos

## check: vet, format, standing greps, build, full tests, race tests — CI's first step.
check: vet fmt invariants build test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

# Standing greps over non-test Go under internal/ cmd/ swapp.go, printing the
# offending lines: no ticker (nothing in the process runs on a timer of its
# own); exactly one site each for the result-cache lookup, admission, the
# evaluation call, the store's wiring and the outgoing peer request; one
# definition of the characterisation-count policy (core's); sync.Once
# only where it runs something once and caches no value (internal/par,
# internal/obs/http.go) — a cached value belongs in an lru.Cache; one
# breaker construction, newPeerSet's — nothing breaks the evaluation's circuit;
# and a GA that starts no goroutine and imports no internal/par: a search
# scores serially on its ensemble member's goroutine, and the ensemble is the pool.
INVARIANT_SRC = internal cmd swapp.go
invariants:
	@fail=0; \
	hits=$$(grep -rnF --include='*.go' --exclude='*_test.go' -e 'time.NewTicker' -e 'time.Tick(' $(INVARIANT_SRC)); \
	if [ -n "$$hits" ]; then echo "invariants: a ticker in non-test Go:"; echo "$$hits"; fail=1; fi; \
	for pat in 's.cache.Lookup(' 's.admit(' 's.runEval(' 'Store = s.store' 'http.NewRequest'; do \
		hits=$$(grep -rnF --include='*.go' --exclude='*_test.go' -e "$$pat" $(INVARIANT_SRC)); \
		n=$$(printf '%s' "$$hits" | grep -c .); \
		if [ "$$n" -ne 1 ]; then echo "invariants: '$$pat' at $$n sites, want 1:"; echo "$$hits"; fail=1; fi; \
	done; \
	hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'func [A-Za-z]*[Cc]harCounts' $(INVARIANT_SRC)); \
	n=$$(printf '%s' "$$hits" | grep -c .); \
	if [ "$$n" -ne 1 ]; then echo "invariants: the characterisation-count policy defined $$n times, want 1:"; echo "$$hits"; fail=1; fi; \
	hits=$$(grep -rnF --include='*.go' --exclude='*_test.go' 'sync.Once' $(INVARIANT_SRC) | grep -v -e '^internal/par/' -e '^internal/obs/http.go:'); \
	if [ -n "$$hits" ]; then echo "invariants: sync.Once outside internal/par and internal/obs/http.go:"; echo "$$hits"; fail=1; fi; \
	hits=$$(grep -rnF --include='*.go' --exclude='*_test.go' 'newBreaker(' $(INVARIANT_SRC) | grep -vF 'func newBreaker('); \
	n=$$(printf '%s' "$$hits" | grep -c .); \
	if [ "$$n" -ne 1 ] || ! printf '%s' "$$hits" | grep -q '^internal/server/peer.go:'; then echo "invariants: newBreaker( at $$n sites, want 1, newPeerSet's:"; echo "$$hits"; fail=1; fi; \
	hits=$$(grep -rnE --include='*.go' --exclude='*_test.go' -e '^[[:space:]]*go[[:space:]]+[A-Za-z_(]' -e '"repro/internal/par"' internal/ga); \
	if [ -n "$$hits" ]; then echo "invariants: a go statement or an internal/par import in non-test internal/ga:"; echo "$$hits"; fail=1; fi; \
	exit $$fail

# -shuffle=on randomises test (and subtest) execution order, so hidden
# inter-test dependencies surface in CI instead of in a refactor.
test:
	$(GO) test -shuffle=on ./...

# The race detector slows the simulator ~10x; -short keeps the heaviest
# figure-grid cases out while still exercising every parallel path
# (the core/figures parallel-vs-serial tests all run in -short mode
# except the full figures grid). A generous -timeout covers slow CI boxes.
race:
	$(GO) test -race -short -timeout 1800s ./...

# Micro-checks only; timings have one entry point, `make benchmark`. The first
# line is the GA's: one whole search over a synthetic 512-dimension fitness
# (BenchmarkRunSerial — objective-bound, so not the search's shape), one
# scoring batch on a warmed evaluator (BenchmarkScoreAll, 0 allocs) and the
# two selection kernels against their naive forms. The second is the simulator's: BenchmarkHandoff is
# ns and allocs per process switch, BenchmarkTimedFire ns and allocs per timed
# fire (waited: a heap event and a switch; unwaited: a stamp, ~10x cheaper),
# BenchmarkSpawnRun's allocs/op the cost of a one-shot 64-process kernel,
# BenchmarkResetRun's (~0) the same kernel reused through Reset. The third is
# one application run on the simulator (nas BenchmarkRun: BT-MZ.C@16 on Hydra,
# profiler on): its B/op and allocs/op are what every run costs the heap,
# and stay flat in the run's timesteps because a wait frees its requests. The
# fourth is the profiler's: BenchmarkProfilerHostCost is one steady-state
# event (0 allocs), BenchmarkProfilerFirstSightings a fresh profiler fed a
# recorded BT-MZ.C@64 stream and frozen — its allocs/op grow with (routine,
# size) keys, not ranks. The fifth is the serving layer: the peer-hop number
# (one grouped /v1/batch against primed owners on a 2-, 4- and 8-replica
# in-process ring) and one 64-item all-hit /v1/batch through the handler.
# The sixth is the validation's: BenchmarkValidateOverlap validates a
# prepared LU-MZ.C@16 pipeline at Workers 1 and at the default back to back
# and reports their wall-clock ratio as `overlap` (skipped at GOMAXPROCS=1).
# The seventh is the search at its production shape: BenchmarkKernel is one
# objective call (0 allocs), BenchmarkSearch one ga.Run with the surrogate
# search's Config over that objective — the baseline to profile the search
# against; its allocs/op do not grow with Generations. The eighth is one whole
# IMB table at 64 ranks on hydra and on power6-575 (imb BenchmarkRun): ns/op is
# the simulator's cost of one full table, and B/op and allocs/op what a
# table costs the heap on one reused world. Beside it, imb BenchmarkSuite is
# the largest row of a cold request's budget: one gather's served tables at
# 128, 64, 32 and 16 ranks through one suite per machine (hydra, power6-575),
# measuring only what prices NAS-MZ's routines and each pairwise group shape
# once; simulations/op counts the worlds and groups it ran.
bench:
	$(GO) test -run '^$$' -bench 'RunSerial|ScoreAll|EnforceSparsity|TopK' -benchmem ./internal/ga
	$(GO) test -run '^$$' -bench 'Handoff|TimedFire|SpawnRun|ResetRun' -benchmem ./internal/des
	$(GO) test -run '^$$' -bench 'BenchmarkRun$$' -benchmem ./internal/nas
	$(GO) test -run '^$$' -bench 'ProfilerHostCost|ProfilerFirstSightings' -benchmem ./internal/mpiprof
	$(GO) test -run '^$$' -bench 'RingBatch|BatchHit' -benchmem ./internal/server
	$(GO) test -run '^$$' -bench 'ValidateOverlap' -benchtime 20x ./internal/core
	$(GO) test -run '^$$' -bench 'Kernel$$|Search$$' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkRun$$|BenchmarkSuite$$' -benchmem ./internal/imb

# The repo's standing benchmark (BENCHMARK.json): four in-process workloads
# plus the per-layer budget; see bench/README.md.
benchmark:
	$(GO) run ./bench

# Short mutation pass over the persistence decoders (strict, and the
# lenient ones that read swapp's -spec-*/-imb-* files), the WAL scanner,
# the job-journal replay, the two HTTP request decoders — /v1/batch and
# the single endpoints' APIRequest — IMB's grouped tables against whole-world simulation
# (any machine, any rank count) and the MPI profiler against its
# per-rank-map reference (any event stream): native corpora plus 10s of mutation per
# target. This is the one list of fuzz targets; CI runs `make fuzz`. The
# batch inputs are kilobytes of JSON: left at its default the minimiser
# spends the whole smoke shrinking the first interesting one byte by byte.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzGroupedTable$$' -fuzztime 10s ./internal/imb
	$(GO) test -run '^$$' -fuzz '^FuzzProfilerMatchesReference$$' -fuzztime 10s ./internal/mpiprof
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalIMB$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSpec$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalIMBLenient$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSpecLenient$$' -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzJournalRecover$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzEvalRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server

# End-to-end smoke of the swappd service: start it, health-check, one
# real cached /v1/project round-trip (second call must hit), clean drain —
# then again with -faults arming an evaluation panic: 500, stay up, and the
# client's identical second request is served (nothing retries in place).
serve-smoke:
	./scripts/serve_smoke.sh

# Peer-aware smoke: 3 swappd replicas on one consistent-hash ring, a
# grouped /v1/batch round-trip, a warm result's owner SIGKILLed (both
# survivors must at once answer its exact bytes — one recomputation, then
# hits), its breaker opened by three more forwards, the owner restarted
# and forwarded to again within the cooldown, SIGTERM clean drain.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Durability smoke: swappd with -data-dir, one async job SIGKILLed while
# running and another SIGTERMed; each restart on the same dir must replay
# the journal, re-run the job under its original ID from a cold store, and
# finish byte-identical to an uninterrupted control run.
crash-smoke:
	./scripts/crash_smoke.sh

# Fault-tolerance suite under the race detector with shuffled order:
# injected faults, recovered panics, peer breaker trips, failed evaluations
# that refuse no later request, the ring's seeded
# kill/cut/rejoin schedules (TestRingChaosSchedules: bytes, per-replica
# evaluation counts and their sum over the schedules all asserted), GA quarantine,
# degraded-input projections. Fast — the heavy grids are elsewhere.
chaos:
	$(GO) test -race -shuffle=on -timeout 600s \
		-run 'Chaos|Fault|Inject|Panic|Breaker|RefuseNothing|Quarantine|Degraded|Lenient|Dropped|GridGap' ./...

# Statement coverage of the -short suite; CI enforces a 72% floor.
cover:
	$(GO) test -short -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
