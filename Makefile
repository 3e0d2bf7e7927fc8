GO ?= go

.PHONY: check build vet fmt invariants test race bench benchmark fuzz cover serve-smoke cluster-smoke crash-smoke chaos prodcover

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
# evaluation call, the endpoint renderer's call (the flight leader's: the
# result cache holds the served document), the store's wiring and the
# outgoing peer request; one
# definition of the characterisation-count policy (core's); sync.Once
# only where it runs something once and caches no value (internal/par,
# internal/obs/http.go) — a cached value belongs in an lru.Cache; one
# breaker construction, newPeerSet's — nothing breaks the evaluation's circuit;
# a GA that starts no goroutine and imports no internal/par: a search
# scores serially on its ensemble member's goroutine, and the ensemble is the pool;
# no os.Getenv or os.LookupEnv — every setting is a flag or a field. One
# check is over tests: every alternative in CHAOS_RUN names at least one
# Test or Fuzz function, so a renamed or deleted test cannot leave
# `make chaos` selecting nothing for it.
# The standing check these greps cannot make is a test: TestNoTestOnlyExports
# (root package, run by `make test`, skipped under -short) type-checks the
# module and fails on every exported internal/ symbol no non-test file uses,
# bar an allowlist whose entries carry their reasons.
INVARIANT_SRC = internal cmd swapp.go
invariants:
	@fail=0; \
	hits=$$(grep -rnF --include='*.go' --exclude='*_test.go' -e 'time.NewTicker' -e 'time.Tick(' $(INVARIANT_SRC)); \
	if [ -n "$$hits" ]; then echo "invariants: a ticker in non-test Go:"; echo "$$hits"; fail=1; fi; \
	for pat in 's.cache.Lookup(' 's.admit(' 's.runEval(' 'spec.render(' 'Store = s.store' 'http.NewRequest'; do \
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
	hits=$$(grep -rnF --include='*.go' --exclude='*_test.go' -e 'os.Getenv' -e 'os.LookupEnv' $(INVARIANT_SRC)); \
	if [ -n "$$hits" ]; then echo "invariants: an environment read in non-test Go:"; echo "$$hits"; fail=1; fi; \
	names=$$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz)[A-Za-z0-9_]+' . | sed 's/^func //'); \
	for alt in $$(printf '%s' '$(CHAOS_RUN)' | tr '|' ' '); do \
		printf '%s\n' "$$names" | grep -qE -- "$$alt" || { echo "invariants: make chaos's -run alternative '$$alt' names no Test or Fuzz function"; fail=1; }; \
	done; \
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
# profiler on): its B/op and allocs/op (~111) are what every run costs the
# heap, and stay flat in the run's timesteps because a wait frees its
# requests, and in its ranks because a run allocates per world. The
# fourth is the profiler's: BenchmarkProfilerHostCost is one steady-state
# event (0 allocs), BenchmarkProfilerFirstSightings a fresh profiler fed a
# recorded BT-MZ.C@64 stream and frozen — its allocs/op (47, pinned by
# TestFirstSightingsAllocs) grow with (routine, size) keys, not ranks. The fifth is the serving layer: the peer-hop number
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
# the simulator's cost of one full table (~45 and ~80 ms on a 2-CPU Xeon), and
# B/op and allocs/op what a table costs the heap on one reused world (104 and
# 114 allocs/op: one program per table, not a closure per measurement).
# Beside it, imb BenchmarkSuite is
# the largest row of a cold request's budget: one gather's served tables at
# 128, 64, 32 and 16 ranks through one suite per machine (hydra, power6-575,
# westmere-x5670, bgp), measuring only what prices NAS-MZ's routines and
# simulating only its multi-Sendrecv fits (with PingPing) at the 7 grid sizes
# that bracket its messages (16 KiB-1 MiB), each pairwise group shape once —
# the Bcast and Reduce cells are netmodel's closed forms; simulations/op
# counts the worlds and groups it ran (hydra 56, power6-575 84,
# westmere-x5670 196, bgp 112). The ninth is the §5 pair (EXPERIMENTS.md):
# one NAS-MZ run on hydra with the profiler (BenchmarkProfileOverhead) and
# without (BenchmarkRunUnprofiled), at LU-MZ.C@16 and at BT-MZ.D@128.
bench:
	$(GO) test -run '^$$' -bench 'RunSerial|ScoreAll|EnforceSparsity|TopK' -benchmem ./internal/ga
	$(GO) test -run '^$$' -bench 'Handoff|TimedFire|SpawnRun|ResetRun' -benchmem ./internal/des
	$(GO) test -run '^$$' -bench 'BenchmarkRun$$' -benchmem ./internal/nas
	$(GO) test -run '^$$' -bench 'ProfilerHostCost|ProfilerFirstSightings' -benchmem ./internal/mpiprof
	$(GO) test -run '^$$' -bench 'RingBatch|BatchHit' -benchmem ./internal/server
	$(GO) test -run '^$$' -bench 'ValidateOverlap' -benchtime 20x ./internal/core
	$(GO) test -run '^$$' -bench 'Kernel$$|Search$$' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkRun$$|BenchmarkSuite$$' -benchmem ./internal/imb
	$(GO) test -run '^$$' -bench 'ProfileOverhead|RunUnprofiled' -benchmem .

# The repo's standing benchmark (BENCHMARK.json): four in-process workloads
# plus the per-layer budget; see bench/README.md.
benchmark:
	$(GO) run ./bench

# Short mutation pass over the persistence decoders (the one decoder per
# document that reads swapp's -spec-*/-imb-* files), the WAL scanner,
# the job-journal replay, the two HTTP request decoders — /v1/batch and
# the single endpoints' APIRequest — IMB's grouped tables against whole-world simulation
# (any machine, any rank count, any size span), the MPI profiler against its
# per-rank-map reference (any event stream) and the simulator's match table
# against the per-destination scan it replaced (any post sequence): native
# corpora plus 10s of mutation per target. This is the one list of fuzz
# targets; CI runs `make fuzz`. Every
# line caps the minimiser at 1s: left at its 60s default it can spend a
# target's whole 10s shrinking one input (the batch inputs are kilobytes of
# JSON, and FuzzProfilerMatchesReference stalled there at 0 execs/s).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzGroupedTable$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/imb
	$(GO) test -run '^$$' -fuzz '^FuzzProfilerMatchesReference$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/mpiprof
	$(GO) test -run '^$$' -fuzz '^FuzzMatchTable$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalIMB$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSpec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalIMBLenient$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSpecLenient$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzJournalRecover$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzEvalRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server

# End-to-end smoke of the swappd service: start it, health-check, one
# real cached /v1/project round-trip (second call must hit, its compute
# section carrying the Eq. 2 ratio), /v1/validate once, /v1/surrogate a
# 404, an expired deadline (504), /metrics.json, clean drain. A panicking evaluation is TestEvalPanicRoundTrip's: the
# same run() in-process.
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
# finish byte-identical to an uninterrupted control run, whose event stream
# must be exactly one done event.
crash-smoke:
	./scripts/crash_smoke.sh

# Production coverage: which internal/ functions no entry point runs.
# scripts/prodcover.sh builds every main under cmd/ and examples/ with
# GOFLAGS='-cover -coverpkg=./...' and GOCOVERDIR exported, runs one fixed
# scenario — figures -all -csv -metrics; swapp with no flags and
# swapp -bench SP-MZ -class D -ranks 128 -target bgp -validate -trace;
# the published-data round trip (imbrun and specrun documents into
# swapp -validate, cmp'd against the same request with no files, then a
# target SPEC document three benchmarks short that grades it B); nasrun
# with no flags; the four
# examples; and the three smoke scripts unedited, whose own go build picks
# up the exported GOFLAGS —
# then lists the internal/ functions at 0.0 % (go tool covdata func). Every
# one must be in scripts/prodcover_allowlist.txt with a reason; an unlisted
# one, a listed one that is reached now, an entry with no reason, or an
# internal/ package no main links fails.
# go run ./bench is left out on purpose: what only bench/ runs stays visible,
# listed as bench/-only, rather than counting as production (~1 min).
prodcover:
	./scripts/prodcover.sh

# Fault-tolerance suite under the race detector with shuffled order: the
# WAL under failed writes, syncs and reads (the kernel's own errors: a
# file-size limit, a read-only handle, a pipe, a directory), recovered
# panics, peer breaker trips, failed evaluations that refuse no later
# request, failed projections that publish nothing, the ring's seeded
# kill/cut/rejoin schedules (TestRingChaosSchedules: bytes, per-replica
# evaluation counts and their sum over the schedules all asserted),
# degraded-input projections, and malformed published documents the
# decoders refuse. Fast — the heavy grids are elsewhere.
# `make invariants` checks that each alternative names a test.
CHAOS_RUN = Chaos|Fault|Panic|Breaker|RefuseNothing|NeverPublishes|Degraded|RefusesMalformed|Dropped|GridGap
chaos:
	$(GO) test -race -shuffle=on -timeout 600s -run '$(CHAOS_RUN)' ./...

# Statement coverage of the -short suite, and the one coverage gate (CI runs
# this target): below 82.3 % fails, 2 points under the 84.3 % the suite
# measured when the floor was last raised.
cover:
	$(GO) test -short -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "total coverage: $$total% (floor 82.3%)"; \
	awk -v t="$$total" 'BEGIN { if (t+0 < 82.3) { print "coverage below the 82.3% floor"; exit 1 } }'
