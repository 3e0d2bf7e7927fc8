package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/spec"
)

// TestLayerSingleflightConcurrentFill proves the singleflight contract
// under -race: any number of concurrent requests for one missing key run
// the fill exactly once and all observe its value.
func TestLayerSingleflightConcurrentFill(t *testing.T) {
	l := newLayer[any]("test.characterisation", 8, nil)
	var fills atomic.Int64
	const goroutines = 32
	results := make([]any, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = l.getOrFill(context.Background(), "k", func() (any, error) {
				fills.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return "artifact", nil
			})
		}(i)
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != "artifact" {
			t.Errorf("goroutine %d got %v", i, results[i])
		}
	}
	if l.len() != 1 {
		t.Errorf("layer holds %d entries, want 1", l.len())
	}
}

// TestLayerConcurrentEviction hammers a small layer with overlapping keys
// from many goroutines — fills, hits, and evictions interleaving — and
// checks the LRU bound holds and every lookup still returns the value
// filled for its own key. Run under -race this also proves the locking.
func TestLayerConcurrentEviction(t *testing.T) {
	const cap = 4
	l := newLayer[any]("test.profile", cap, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12) // 12 keys > cap forces eviction
				want := "v:" + key
				v, err := l.getOrFill(context.Background(), key, func() (any, error) {
					return want, nil
				})
				if err != nil {
					t.Errorf("getOrFill(%s): %v", key, err)
					return
				}
				if v != want {
					t.Errorf("getOrFill(%s) = %v, want %v", key, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.len(); n > cap {
		t.Errorf("layer holds %d entries, cap is %d", n, cap)
	}
}

// TestLayerFailedFillNotCached proves an erroring fill leaves no entry
// behind — the next request retries instead of serving a poisoned value.
func TestLayerFailedFillNotCached(t *testing.T) {
	l := newLayer[any]("test.profile", 8, nil)
	wantErr := fmt.Errorf("boom")
	if _, err := l.getOrFill(context.Background(), "k", func() (any, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if l.len() != 0 {
		t.Fatalf("failed fill was cached (%d entries)", l.len())
	}
	v, err := l.getOrFill(context.Background(), "k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after failed fill = %v, %v", v, err)
	}
}

// TestLayerFillPanicIsAnError proves a panicking fill is a failed fill, not
// a dead process: the leader and every joined waiter get the panic as an
// error, nothing is cached, and the next request for the key fills afresh.
func TestLayerFillPanicIsAnError(t *testing.T) {
	scope := obs.New("test")
	defer scope.End()
	l := newLayer[any]("test.profile", 8, scope)
	const callers = 8
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, callers)
	call := func() {
		_, err := l.getOrFill(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
		errs <- err
	}
	go call()
	<-started
	for i := 1; i < callers; i++ {
		go call()
	}
	// A joiner is counted as a hit once it holds the in-flight fill.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, _ := scope.Metrics().Counter("test.profile_hits"); n == callers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the in-flight fill")
		}
	}
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "test.profile fill panicked: boom") {
			t.Errorf("caller %d: err = %v, want the fill's panic", i, err)
		}
	}
	if l.len() != 0 {
		t.Fatalf("panicked fill was cached (%d entries)", l.len())
	}
	v, err := l.getOrFill(context.Background(), "k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after panicked fill = %v, %v", v, err)
	}
}

// TestLayerFillDetachedFromCaller proves a fill outlives the request that
// started it: the leader's context expires, the leader gets ctx.Err(),
// but the artifact still lands in the layer for the next request — which
// must not re-run the fill.
func TestLayerFillDetachedFromCaller(t *testing.T) {
	l := newLayer[any]("test.characterisation", 8, nil)
	var fills atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the caller has already given up
	started := make(chan struct{})
	if _, err := l.getOrFill(ctx, "k", func() (any, error) {
		close(started)
		fills.Add(1)
		time.Sleep(10 * time.Millisecond)
		return "late artifact", nil
	}); err != context.Canceled {
		t.Fatalf("cancelled leader got %v, want context.Canceled", err)
	}
	<-started
	// The detached fill completes on its own schedule.
	deadline := time.Now().Add(5 * time.Second)
	for l.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached fill never published its artifact")
		}
		time.Sleep(time.Millisecond)
	}
	v, err := l.getOrFill(context.Background(), "k", func() (any, error) {
		t.Error("fill re-ran for a published key")
		return nil, nil
	})
	if err != nil || v != "late artifact" {
		t.Fatalf("post-abandon lookup = %v, %v", v, err)
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
}

// TestLayerKeysCollisionFree proves distinct normalised inputs can never
// share a layer key: every variable-length component is quoted, so the
// classic concatenation collision — ("a|b", "c") vs ("a", "b|c") — and
// quote-smuggling names stay distinct.
func TestLayerKeysCollisionFree(t *testing.T) {
	m := func(name string) *arch.Machine { return &arch.Machine{Name: name} }
	keys := []string{
		specKey(m(`a|b`)),
		specKey(m(`a`)),
		specKey(m(`a"|"b`)),
		imbKey(m(`a|b`), 16, false),
		imbKey(m(`a`), 16, false),
		imbKey(m(`a`), 16, true),
		imbKey(m(`a`), 1, false),
		imbKey(m(`a|1`), 6, false), // would collide with ("a", 16) if unquoted
		profileKey(m(`a|b`), nas.Benchmark("c"), 'C', 16),
		profileKey(m(`a`), nas.Benchmark("b|c"), 'C', 16),
		profileKey(m(`a`), nas.Benchmark(`b"|"c`), 'C', 16),
	}
	seen := map[string]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Errorf("keys %d and %d collide: %s", j, i, k)
		}
		seen[k] = i
	}
}

// TestStoreConcurrentEvictionUnderFill churns two tiny typed layers through
// fill + eviction from many goroutines at once, through the Store's own
// accessors: under -race this proves the locking; the assertions prove the
// bounds hold and every caller observes the artifact filled for its own key.
func TestStoreConcurrentEvictionUnderFill(t *testing.T) {
	// The layers' real bounds are constants; two-entry layers make the
	// churn cheap.
	s := &Store{
		chars:    newLayer[charValue]("test.characterisation", 2, nil),
		profiles: newLayer[*ProfileArtifact]("test.profile", 2, nil),
	}
	base := &arch.Machine{Name: "base"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			m := &arch.Machine{Name: fmt.Sprintf("m-%d", g)}
			for count := 1; count <= 16; count++ {
				want := &imb.Table{}
				got, err := s.imbTable(context.Background(), m, count, false, func() (*imb.Table, error) {
					time.Sleep(time.Millisecond) // widen the race window
					return want, nil
				})
				if err != nil || got != want {
					t.Errorf("imbTable(m-%d, %d) = %p, %v; want %p", g, count, got, err, want)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				ranks := 1 + (g+i)%6 // 6 keys > cap, shared across goroutines
				got, err := s.profileAt(context.Background(), base, nas.BT, nas.ClassC, ranks,
					func() (*ProfileArtifact, error) {
						return &ProfileArtifact{Counters: &CounterPair{Ranks: ranks}}, nil
					})
				if err != nil || got.Counters.Ranks != ranks {
					t.Errorf("profileAt(%d) = %+v, %v", ranks, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if chars, profiles := s.Sizes(); chars > 2 || profiles > 2 {
		t.Errorf("layers hold %d characterisations and %d profiles, cap is 2 each", chars, profiles)
	}
}

// simulatorPin is the SHA-256 of hydra's SPEC result set followed by its
// full 32-rank IMB table (two nodes, so the inter-node fits are in it) and
// the 32-rank table a gather serves (NAS-MZ's routines only), all in
// persist wire form, as the simulator produced them when the pin was last
// recorded.
const simulatorPin = "a0d17dd41b4a5669f5e47c71e41a1c045e72f45387e66763de7be35e4d7059b8"

// TestCharEpochPinsSimulatorOutput fails when the simulator's
// characterisation output changes for an unchanged machine description.
// Every projection is built on these values, so such a change is a change
// of behaviour: make it on purpose, and re-record this sum together with
// the goldens (docs/evaluation_reference.txt) in the same change.
func TestCharEpochPinsSimulatorOutput(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	results, err := spec.RunSuite(m, true)
	if err != nil {
		t.Fatal(err)
	}
	specBody, err := persist.MarshalSpec(m.Name, results)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(specBody)
	for _, s := range []*imb.Suite{imb.NewSuite(m), imb.NewSuite(m, nas.Routines()...)} {
		tab, err := s.Table(32, nil)
		if err != nil {
			t.Fatal(err)
		}
		imbBody, err := persist.MarshalIMB(tab)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(imbBody)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simulatorPin {
		t.Errorf("characterisation output changed: sha256 %s, pinned %s.\n"+
			"If the change is meant, re-record the sum in simulatorPin together with the goldens "+
			"(docs/evaluation_reference.txt) in the same change.", got, simulatorPin)
	}
}
