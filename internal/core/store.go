package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/lru"
	"repro/internal/mpiprof"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Store is the layered artifact cache behind a shared projection service:
// content-addressed stores for the pipeline's reusable intermediates, each
// shared across every request whose key matches, regardless of what else
// the requests differ in.
//
// The layers are the artifacts the paper calls reusable (§2.2: benchmark
// characterisations and the application's base-machine profiles):
//
//	characterisation  per (machine, suite[, core count]): the SPEC CPU2006
//	                  result set and the per-count IMB tables — shared by
//	                  every request naming the machine on either side
//	profile           per (base machine, app, class, ranks): one MPI
//	                  profile + hardware-counter observation — shared by
//	                  every request for the app on that base, whatever the
//	                  target machine or requested core count
//
// The §2.3 compute projection is not stored: it is characterised at the
// requested count itself whenever that count is profile-able, so its key
// would be the result cache's key without the op.
//
// Every artifact is a pure function of its key (the substrate is a
// deterministic simulation and measurement noise is key-seeded), so a
// projection assembled from stored artifacts is byte-identical to one
// computed from scratch. Values are immutable once published and safe to
// share: the pipeline copies before any mutation (see applyInjectedDrops).
// The store lives in memory only: a new process starts with it empty and
// refills it on demand, so a restart is a cold start.
//
// Each layer is an lru.Cache whose fills run detached from any request
// context (see layer), so an aborted request cannot poison or cancel a fill
// that other requests are waiting on. Hits, misses, and sizes are published
// per layer through the configured obs scope (and from there expvar).
//
// A Store is optional everywhere: nil disables all layers. The pipeline
// also bypasses it while fault injection is armed or when the request
// supplied external benchmark data — degraded artifacts must never be
// published under the clean content-addressed keys.
type Store struct {
	chars    *layer[charValue]
	profiles *layer[*ProfileArtifact]
}

// The layers' bounds, in entries. A characterisation entry is one SPEC
// suite run or one per-count IMB table, a profile entry one (app, ranks)
// observation.
const (
	charCap    = 64
	profileCap = 512
)

// StoreConfig parameterises NewStore. The zero value is usable.
type StoreConfig struct {
	// Obs receives the per-layer counters and size gauges
	// (<prefix>.characterisation_hits / _misses / _size, likewise for
	// profile). nil disables metrics, not the store.
	Obs *obs.Scope
	// MetricPrefix overrides the default "core.store" metric prefix —
	// swappd mounts the store under its own "server.cache" namespace so
	// the serving dashboards see one family of cache counters.
	MetricPrefix string
}

// NewStore builds an empty layered store.
func NewStore(cfg StoreConfig) *Store {
	prefix := cfg.MetricPrefix
	if prefix == "" {
		prefix = "core.store"
	}
	return &Store{
		chars:    newLayer[charValue](prefix+".characterisation", charCap, cfg.Obs),
		profiles: newLayer[*ProfileArtifact](prefix+".profile", profileCap, cfg.Obs),
	}
}

// Sizes reports the current entry count per layer (diagnostics, tests).
func (s *Store) Sizes() (chars, profiles int) {
	return s.chars.len(), s.profiles.len()
}

// Layer keys quote every variable-length component, so no two distinct
// normalised inputs can collapse onto one key (e.g. machine "a|b" with
// suite "c" vs machine "a" with suite "b|c").

func specKey(m *arch.Machine) string {
	return fmt.Sprintf("spec|%q", m.Name)
}

// imbKey names machine m's full IMB table at count or, with nasOnly, the
// table Prepare's gather serves, which measures only what prices
// nas.Routines().
func imbKey(m *arch.Machine, count int, nasOnly bool) string {
	if nasOnly {
		return fmt.Sprintf("imb|%q|%d|nas", m.Name, count)
	}
	return fmt.Sprintf("imb|%q|%d", m.Name, count)
}

func profileKey(base *arch.Machine, b nas.Benchmark, c nas.Class, ranks int) string {
	return fmt.Sprintf("profile|%q|%q|%c|%d", base.Name, string(b), c, ranks)
}

// charValue is one characterisation-layer value: a machine's SPEC result
// set under a spec| key, or one IMB table under an imb| key. Both live in
// one layer because they share its bound and its counters.
type charValue struct {
	spec map[string]spec.Result
	imb  *imb.Table
}

// specSuite resolves one machine's SPEC CPU2006 result set through the
// characterisation layer.
func (s *Store) specSuite(ctx context.Context, m *arch.Machine, fill func() (map[string]spec.Result, error)) (map[string]spec.Result, error) {
	v, err := s.chars.getOrFill(ctx, specKey(m), func() (charValue, error) {
		r, err := fill()
		return charValue{spec: r}, err
	})
	return v.spec, err
}

// imbTable resolves one (machine, core count, selection) IMB table
// through the characterisation layer.
func (s *Store) imbTable(ctx context.Context, m *arch.Machine, count int, nasOnly bool, fill func() (*imb.Table, error)) (*imb.Table, error) {
	v, err := s.chars.getOrFill(ctx, imbKey(m, count, nasOnly), func() (charValue, error) {
		t, err := fill()
		return charValue{imb: t}, err
	})
	return v.imb, err
}

// ProfileArtifact is one profile-layer entry: the application's base-machine
// MPI profile and hardware-counter observation at one core count.
type ProfileArtifact struct {
	Profile  *mpiprof.Profile
	Counters *CounterPair
}

// profileAt resolves one (base, app, class, ranks) observation through the
// profile layer.
func (s *Store) profileAt(ctx context.Context, base *arch.Machine, b nas.Benchmark, c nas.Class, ranks int, fill func() (*ProfileArtifact, error)) (*ProfileArtifact, error) {
	return s.profiles.getOrFill(ctx, profileKey(base, b, c, ranks), fill)
}

// layer is one store layer: an lru.Cache plus what the store adds to it —
// fills that run detached from the request that started them, a panicking
// fill turned into an error, and the per-layer counters. Values are
// immutable once published.
type layer[V any] struct {
	name  string
	obs   *obs.Scope
	cache *lru.Cache[string, V]
}

func newLayer[V any](name string, max int, scope *obs.Scope) *layer[V] {
	return &layer[V]{name: name, obs: scope, cache: lru.New[string, V](max)}
}

// getOrFill returns the value for key: cached, from the fill already in
// flight (both counted as hits), or by starting the fill as its leader.
// The leader's fill runs in its own goroutine, detached from ctx: any
// caller may give up at its deadline, but the shared fill runs to
// completion so every other request still gets the artifact. Failed fills
// are not cached; a fill that panics is a failed fill (see runFill).
func (l *layer[V]) getOrFill(ctx context.Context, key string, fill func() (V, error)) (V, error) {
	v, flight, leader := l.cache.Lookup(key)
	if !leader {
		l.obs.Count(l.name+"_hits", 1)
		if flight == nil {
			return v, nil
		}
		return flight.Wait(ctx)
	}
	l.obs.Count(l.name+"_misses", 1)
	go func() {
		v, err := l.runFill(fill)
		l.obs.Gauge(l.name+"_size", float64(l.cache.Finish(key, v, err)))
	}()
	return flight.Wait(ctx)
}

// runFill runs one fill with panic isolation. The fill's goroutine is
// outside every caller's recover, so a panic escaping it would end the
// process; here it becomes the error every waiter receives instead.
func (l *layer[V]) runFill(fill func() (V, error)) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: %s fill panicked: %v", l.name, p)
		}
	}()
	return fill()
}

func (l *layer[V]) len() int { return l.cache.Len() }
